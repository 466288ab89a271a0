(* Bundle facade over Compact.Snapshot: the core CSR section plus
   optional geo and bandwidth sections in one checksummed container. *)

type bundle = {
  topo : Compact.t;
  geo : Geo.t option;
  bandwidth : Bandwidth.t option;
}

let geo_tag = "geo"
let bw_tag = "bandwidth"

let err fmt = Printf.ksprintf invalid_arg ("Snapshot.load: " ^^ fmt)

let add_u64 buf n = Buffer.add_int64_le buf (Int64.of_int n)
let add_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

type cursor = { s : string; mutable pos : int }

let read_raw cur what =
  if cur.pos + 8 > String.length cur.s then
    err "truncated %s section at offset %d" what cur.pos;
  let v = String.get_int64_le cur.s cur.pos in
  cur.pos <- cur.pos + 8;
  v

(* [Int64.to_int] would drop bit 63 of a word that does not fit. *)
let read_u64 cur what =
  let pos = cur.pos in
  let w = read_raw cur what in
  let v = Int64.to_int w in
  if not (Int64.equal (Int64.of_int v) w) then
    err "%s section: word 0x%016Lx at offset %d does not fit in a 63-bit int"
      what w pos;
  if v < 0 then err "negative field in %s section" what;
  v

let read_f64 cur what = Int64.float_of_bits (read_raw cur what)

let encode_geo geo =
  let as_rows, link_rows = Geo.bindings geo in
  let buf = Buffer.create (32 * (List.length as_rows + List.length link_rows)) in
  add_u64 buf (List.length as_rows);
  List.iter
    (fun (x, (p : Geo.point)) ->
      add_u64 buf (Asn.to_int x);
      add_f64 buf p.Geo.lat;
      add_f64 buf p.Geo.lon)
    as_rows;
  add_u64 buf (List.length link_rows);
  List.iter
    (fun ((x, y), (p : Geo.point)) ->
      add_u64 buf (Asn.to_int x);
      add_u64 buf (Asn.to_int y);
      add_f64 buf p.Geo.lat;
      add_f64 buf p.Geo.lon)
    link_rows;
  Buffer.contents buf

let decode_geo body =
  let cur = { s = body; pos = 0 } in
  let n_as = read_u64 cur geo_tag in
  let as_rows =
    List.init n_as (fun _ ->
        let x = Asn.of_int (read_u64 cur geo_tag) in
        let lat = read_f64 cur geo_tag in
        let lon = read_f64 cur geo_tag in
        (x, { Geo.lat; lon }))
  in
  let n_links = read_u64 cur geo_tag in
  let link_rows =
    List.init n_links (fun _ ->
        let x = Asn.of_int (read_u64 cur geo_tag) in
        let y = Asn.of_int (read_u64 cur geo_tag) in
        let lat = read_f64 cur geo_tag in
        let lon = read_f64 cur geo_tag in
        ((x, y), { Geo.lat; lon }))
  in
  if cur.pos <> String.length body then
    err "geo section has %d trailing bytes" (String.length body - cur.pos);
  Geo.of_bindings as_rows link_rows

let encode_bw bw =
  let buf = Buffer.create 8 in
  add_f64 buf (Bandwidth.coefficient bw);
  Buffer.contents buf

let decode_bw topo body =
  let cur = { s = body; pos = 0 } in
  let coefficient = read_f64 cur bw_tag in
  if cur.pos <> String.length body then
    err "bandwidth section has %d trailing bytes"
      (String.length body - cur.pos);
  Bandwidth.of_compact ~coefficient topo

let to_string ?geo ?bandwidth topo =
  let sections =
    (match geo with Some g -> [ (geo_tag, encode_geo g) ] | None -> [])
    @
    match bandwidth with
    | Some b -> [ (bw_tag, encode_bw b) ]
    | None -> []
  in
  Compact.Snapshot.to_string ~sections topo

let of_string s =
  let topo, sections = Compact.Snapshot.of_string s in
  {
    topo;
    geo = Option.map decode_geo (List.assoc_opt geo_tag sections);
    bandwidth =
      Option.map (decode_bw topo) (List.assoc_opt bw_tag sections);
  }

let save path ?geo ?bandwidth topo =
  let data = to_string ?geo ?bandwidth topo in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let load path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let bundle = of_string data in
  Pan_obs.Obs.incr "topology.snapshot.load";
  Pan_obs.Obs.incr ~by:(Compact.num_ases bundle.topo) "topology.snapshot.ases";
  bundle
