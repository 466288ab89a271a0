open Pan_topology

type component = Latency | Nlatency | Bandwidth | Nbandwidth | Hops
type term = { weight : float; component : component }
type attr = Encrypted | Monitored
type fence = { center : Geo.point; radius_km : float }

type t = {
  metric : term list;
  k : int;
  max_hops : int option;
  exclude_as : Asn.t list;
  exclude_link : (Asn.t * Asn.t) list;
  geo_fence : fence option;
  require : attr list;
}

let component_label = function
  | Latency -> "latency"
  | Nlatency -> "nlatency"
  | Bandwidth -> "bandwidth"
  | Nbandwidth -> "nbandwidth"
  | Hops -> "hops"

let attr_label = function Encrypted -> "encrypted" | Monitored -> "monitored"

let norm_link name (a, b) =
  match Asn.compare a b with
  | 0 ->
      invalid_arg
        (Printf.sprintf "%s: self-link on AS%d" name (Asn.to_int a))
  | c when c < 0 -> (a, b)
  | _ -> (b, a)

(* The K-shortest search stops only at K paths or an empty frontier, so
   an unbounded K would enumerate every simple path of the pair. *)
let max_k = 1024

let make ?(metric = [ { weight = 1.0; component = Latency } ]) ?(k = 1)
    ?max_hops ?(exclude_as = []) ?(exclude_link = []) ?geo_fence
    ?(require = []) () =
  if metric = [] then invalid_arg "Intent.make: metric needs at least one term";
  List.iter
    (fun { weight; _ } ->
      if not (Float.is_finite weight) then
        invalid_arg "Intent.make: metric weights must be finite")
    metric;
  if k < 1 then invalid_arg "Intent.make: k must be >= 1";
  if k > max_k then
    invalid_arg (Printf.sprintf "Intent.make: k must be <= %d" max_k);
  (match max_hops with
  | Some h when h < 1 -> invalid_arg "Intent.make: max-hops must be >= 1"
  | _ -> ());
  (match geo_fence with
  | Some f when not (f.radius_km > 0.0) ->
      invalid_arg "Intent.make: geo-fence radius must be positive"
  | _ -> ());
  {
    metric;
    k;
    max_hops;
    exclude_as = List.sort_uniq Asn.compare exclude_as;
    exclude_link =
      List.sort_uniq compare (List.map (norm_link "Intent.make") exclude_link);
    geo_fence;
    require = List.sort_uniq compare require;
  }

let default = make ()
let equal a b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* Canonical printing                                                  *)

(* Shortest decimal form that parses back to the same double — keeps
   specs readable while guaranteeing print/parse round-trip.  The
   exponent prints without its '+' ("1e12", not "1e+12"): the parser
   splits a metric at '+' before it reads a weight. *)
let float_str f =
  let s = Printf.sprintf "%.12g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  String.concat "" (String.split_on_char '+' s)

let term_str { weight; component } =
  if weight = 1.0 then component_label component
  else float_str weight ^ "*" ^ component_label component

let pp_asn x = Printf.sprintf "AS%d" (Asn.to_int x)

let to_string t =
  let clauses = ref [] in
  let add c = clauses := c :: !clauses in
  add ("metric=" ^ String.concat "+" (List.map term_str t.metric));
  add (Printf.sprintf "k=%d" t.k);
  Option.iter (fun h -> add (Printf.sprintf "max-hops=%d" h)) t.max_hops;
  if t.exclude_as <> [] then
    add ("exclude-as=" ^ String.concat "," (List.map pp_asn t.exclude_as));
  if t.exclude_link <> [] then
    add
      ("exclude-link="
      ^ String.concat ","
          (List.map (fun (a, b) -> pp_asn a ^ "-" ^ pp_asn b) t.exclude_link));
  Option.iter
    (fun f ->
      add
        (Printf.sprintf "geo-fence=%s,%s,%s"
           (float_str f.center.Geo.lat)
           (float_str f.center.Geo.lon)
           (float_str f.radius_km)))
    t.geo_fence;
  if t.require <> [] then
    add ("require=" ^ String.concat "," (List.map attr_label t.require));
  String.concat "; " (List.rev !clauses)

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Error of int * int * string

let line_col s i =
  let line = ref 1 and bol = ref 0 in
  let stop = min i (String.length s) in
  for j = 0 to stop - 1 do
    if s.[j] = '\n' then (
      incr line;
      bol := j + 1)
  done;
  (!line, i - !bol + 1)

let fail s i fmt =
  Printf.ksprintf
    (fun msg ->
      let line, col = line_col s i in
      raise (Error (line, col, msg)))
    fmt

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* Split [v] (which starts at absolute offset [base] of the spec) on
   [sep], trimming whitespace around each piece and keeping each piece's
   absolute offset so sub-parsers report exact columns. *)
let split_at base v sep =
  let n = String.length v in
  let rec go start acc =
    let stop =
      match String.index_from_opt v start sep with Some j -> j | None -> n
    in
    let a = ref start and b = ref stop in
    while !a < !b && is_ws v.[!a] do
      incr a
    done;
    while !b > !a && is_ws v.[!b - 1] do
      decr b
    done;
    let acc = (String.sub v !a (!b - !a), base + !a) :: acc in
    if stop >= n then List.rev acc else go (stop + 1) acc
  in
  go 0 []

let parse_asn s (tok, off) =
  let bad () = fail s off "expected an AS number like AS42, got %S" tok in
  if String.length tok < 3 || String.sub tok 0 2 <> "AS" then bad ();
  match
    Pan_numerics.Decimal.nat_of_string_opt
      (String.sub tok 2 (String.length tok - 2))
  with
  | Some n -> Asn.of_int n
  | None -> bad ()

let parse_pos_int s name (tok, off) =
  match Pan_numerics.Decimal.nat_of_string_opt tok with
  | Some n when n >= 1 -> n
  | Some _ -> fail s off "%s must be >= 1, got %s" name tok
  | None -> fail s off "expected an integer %s, got %S" name tok

let parse_float s name (tok, off) =
  match Pan_numerics.Decimal.float_of_string_opt tok with
  | Some f when Float.is_finite f -> f
  | _ -> fail s off "expected a finite number for %s, got %S" name tok

let parse_component s (tok, off) =
  match tok with
  | "latency" -> Latency
  | "nlatency" -> Nlatency
  | "bandwidth" -> Bandwidth
  | "nbandwidth" -> Nbandwidth
  | "hops" -> Hops
  | _ ->
      fail s off
        "unknown metric component %S (expected latency, nlatency, bandwidth, \
         nbandwidth or hops)"
        tok

let parse_term s (tok, off) =
  match String.index_opt tok '*' with
  | None -> { weight = 1.0; component = parse_component s (tok, off) }
  | Some j ->
      let w = String.trim (String.sub tok 0 j) in
      let c0 = ref (j + 1) in
      while !c0 < String.length tok && is_ws tok.[!c0] do
        incr c0
      done;
      let c = String.sub tok !c0 (String.length tok - !c0) in
      {
        weight = parse_float s "a metric weight" (w, off);
        component = parse_component s (c, off + !c0);
      }

let parse_attr s (tok, off) =
  match tok with
  | "encrypted" -> Encrypted
  | "monitored" -> Monitored
  | _ ->
      fail s off "unknown link attribute %S (expected encrypted or monitored)"
        tok

let parse_link s (tok, off) =
  match split_at off tok '-' with
  | [ a; b ] ->
      let a = parse_asn s a and b = parse_asn s b in
      if Asn.compare a b = 0 then
        fail s off "exclude-link: self-link on %s" (pp_asn a);
      if Asn.compare a b < 0 then (a, b) else (b, a)
  | _ -> fail s off "expected a link like AS1-AS2, got %S" tok

let parse_spec s =
  let n = String.length s in
  let i = ref 0 in
  let skip_ws () =
    while !i < n && is_ws s.[!i] do
      incr i
    done
  in
  let metric = ref None in
  let k = ref None in
  let max_hops = ref None in
  let exclude_as = ref [] in
  let exclude_link = ref [] in
  let geo_fence = ref None in
  let require = ref None in
  let seen = Hashtbl.create 7 in
  let clause () =
    let key_start = !i in
    while
      !i < n && (s.[!i] = '-' || (s.[!i] >= 'a' && s.[!i] <= 'z'))
    do
      incr i
    done;
    let key = String.sub s key_start (!i - key_start) in
    if key = "" then fail s !i "expected a clause like metric=... or k=...";
    skip_ws ();
    if !i >= n || s.[!i] <> '=' then fail s !i "expected '=' after %S" key;
    incr i;
    skip_ws ();
    let v_start = !i in
    while !i < n && s.[!i] <> ';' do
      incr i
    done;
    let v_stop = ref !i in
    while !v_stop > v_start && is_ws s.[!v_stop - 1] do
      decr v_stop
    done;
    let v = String.sub s v_start (!v_stop - v_start) in
    if Hashtbl.mem seen key then fail s key_start "duplicate clause %S" key;
    Hashtbl.replace seen key ();
    match key with
    | "metric" -> metric := Some (List.map (parse_term s) (split_at v_start v '+'))
    | "k" ->
        let kv = parse_pos_int s "k" (v, v_start) in
        if kv > max_k then fail s v_start "k must be <= %d, got %s" max_k v;
        k := Some kv
    | "max-hops" ->
        max_hops := Some (parse_pos_int s "max-hops" (v, v_start))
    | "exclude-as" ->
        exclude_as := List.map (parse_asn s) (split_at v_start v ',')
    | "exclude-link" ->
        exclude_link := List.map (parse_link s) (split_at v_start v ',')
    | "geo-fence" -> (
        match split_at v_start v ',' with
        | [ lat; lon; r ] ->
            let lat = parse_float s "geo-fence latitude" lat in
            let lon = parse_float s "geo-fence longitude" lon in
            let radius_km = parse_float s "geo-fence radius" r in
            if not (radius_km > 0.0) then
              fail s v_start "geo-fence radius must be positive, got %s"
                (float_str radius_km);
            geo_fence := Some { center = { Geo.lat; lon }; radius_km }
        | pieces ->
            fail s v_start
              "geo-fence takes <lat>,<lon>,<radius-km>, got %d value(s)"
              (List.length pieces))
    | "require" ->
        require := Some (List.map (parse_attr s) (split_at v_start v ','))
    | _ ->
        fail s key_start
          "unknown clause %S (expected metric, k, max-hops, exclude-as, \
           exclude-link, geo-fence or require)"
          key
  in
  skip_ws ();
  if !i >= n then fail s !i "empty intent spec";
  clause ();
  skip_ws ();
  while !i < n do
    if s.[!i] <> ';' then fail s !i "expected ';' between clauses";
    incr i;
    skip_ws ();
    clause ();
    skip_ws ()
  done;
  make ?metric:!metric ?k:!k ?max_hops:!max_hops ~exclude_as:!exclude_as
    ~exclude_link:!exclude_link ?geo_fence:!geo_fence ?require:!require ()

let parse_located s =
  match parse_spec s with
  | t -> Ok t
  | exception Error (line, col, msg) -> Result.error (line, col, msg)

let error_message (line, col, msg) =
  Printf.sprintf "line %d, col %d: %s" line col msg

let parse s =
  Result.map_error (fun e -> `Msg (error_message e)) (parse_located s)

let parse_exn s =
  match parse_located s with
  | Ok t -> t
  | Error e -> invalid_arg ("Intent.parse: " ^ error_message e)

(* ------------------------------------------------------------------ *)
(* Synthetic link attributes                                           *)

(* No real dataset carries per-link attributes, so the default
   assignment is a deterministic hash of the (unordered) endpoint ASNs:
   stable across runs, uncorrelated with topology generation seeds, and
   replaceable by any caller with real attribute data. *)
let default_attrs a b =
  let lo, hi =
    if Asn.compare a b <= 0 then (Asn.to_int a, Asn.to_int b)
    else (Asn.to_int b, Asn.to_int a)
  in
  let h = (lo * 1000003) lxor (hi * 8191) in
  let attrs = if h mod 3 = 0 then [ Monitored ] else [] in
  if h land 1 = 0 then Encrypted :: attrs else attrs
