module Obs = Pan_obs.Obs

(* One relationship class as a two-level row table: row [i] is
   [rows.(i / block).(i mod block)], its entries ascending.  Blocks and
   rows are never written once built, so a splice shares every block and
   row it does not change with the class it started from, and every
   empty row is the one [[||]]. *)
type rows = int array array array

type t = {
  ids : Asn.t array;
  prov : rows;
  peer : rows;
  cust : rows;
  n_p2c : int;
  n_p2p : int;
}

let block_bits = 6
let block = 1 lsl block_bits

(* The one row accessor.  Both levels are bounds-checked, so an index
   outside [0, n) raises like an array access. *)
let row (rows : rows) i = rows.(i lsr block_bits).(i land (block - 1))

let table n row_of : rows =
  Array.init ((n + block - 1) / block) (fun b ->
      let first = b * block in
      Array.init (min block (n - first)) (fun k -> row_of (first + k)))

let num_ases t = Array.length t.ids
let num_provider_customer_links t = t.n_p2c
let num_peering_links t = t.n_p2p

let id t i = t.ids.(i)
let asns t = Array.copy t.ids

let index_of t x =
  (* [ids] is sorted ascending, so interning is a binary search — no side
     table to share between domains. *)
  let lo = ref 0 and hi = ref (Array.length t.ids - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Asn.compare t.ids.(mid) x in
    if c = 0 then found := Some mid
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let index_of_exn t x =
  match index_of t x with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Compact.index_of_exn: unknown AS%d" (Asn.to_int x))

let rows_of ids index rel =
  table (Array.length ids) (fun i ->
      let set = rel ids.(i) in
      let r = Array.make (Asn.Set.cardinal set) 0 in
      let k = ref 0 in
      (* set elements come out ascending by ASN; interning is monotone, so
         each row is ascending by index too *)
      Asn.Set.iter
        (fun y ->
          r.(!k) <- index y;
          incr k)
        set;
      r)

let freeze g =
  Obs.with_span "topology.freeze" @@ fun () ->
  let ids = Array.of_list (Graph.ases g) in
  (* exact interning table for the build only; queries afterwards use the
     binary search above *)
  let tbl = Hashtbl.create (2 * Array.length ids) in
  Array.iteri (fun i x -> Hashtbl.replace tbl x i) ids;
  let index x = Hashtbl.find tbl x in
  let t =
    {
      ids;
      prov = rows_of ids index (Graph.providers g);
      peer = rows_of ids index (Graph.peers g);
      cust = rows_of ids index (Graph.customers g);
      n_p2c = Graph.num_provider_customer_links g;
      n_p2p = Graph.num_peering_links g;
    }
  in
  Obs.incr "topology.freeze";
  Obs.incr ~by:(num_ases t) "topology.compact.ases";
  Obs.incr ~by:t.n_p2c "topology.compact.p2c_links";
  Obs.incr ~by:t.n_p2p "topology.compact.p2p_links";
  t

let row_iter rows i f =
  let r = row rows i in
  for k = 0 to Array.length r - 1 do
    f (Array.unsafe_get r k)
  done

let iter_providers t i f = row_iter t.prov i f
let iter_peers t i f = row_iter t.peer i f
let iter_customers t i f = row_iter t.cust i f

let iter_neighbors t i f =
  iter_providers t i f;
  iter_peers t i f;
  iter_customers t i f

let providers_count t i = Array.length (row t.prov i)
let peers_count t i = Array.length (row t.peer i)
let customers_count t i = Array.length (row t.cust i)

let degree t i = providers_count t i + peers_count t i + customers_count t i

let row_mem rows i j =
  let r = row rows i in
  let lo = ref 0 and hi = ref (Array.length r - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = r.(mid) in
    if v = j then found := true else if v < j then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let mem_provider t i j = row_mem t.prov i j
let mem_peer t i j = row_mem t.peer i j
let mem_customer t i j = row_mem t.cust i j

let connected t i j = mem_provider t i j || mem_peer t i j || mem_customer t i j

let add_providers t i bs = iter_providers t i (fun j -> Bitset.unsafe_add bs j)
let add_peers t i bs = iter_peers t i (fun j -> Bitset.unsafe_add bs j)
let add_customers t i bs = iter_customers t i (fun j -> Bitset.unsafe_add bs j)

let iter_peering_links t f =
  let n = num_ases t in
  for i = 0 to n - 1 do
    row_iter t.peer i (fun j -> if i < j then f i j)
  done

let iter_provider_customer_links t f =
  let n = num_ases t in
  for provider = 0 to n - 1 do
    row_iter t.cust provider (fun customer -> f ~provider ~customer)
  done

let pp_stats fmt t =
  Format.fprintf fmt
    "%d ASes interned, %d provider-customer + %d peering links (CSR)"
    (num_ases t) t.n_p2c t.n_p2p

let view t =
  let set_of rows x =
    match index_of t x with
    | None -> Asn.Set.empty
    | Some i ->
        let l = ref [] in
        row_iter rows i (fun j -> l := t.ids.(j) :: !l);
        Asn.Set.of_list !l
  in
  {
    Graph.providers = set_of t.prov;
    peers = set_of t.peer;
    customers = set_of t.cust;
    degree =
      (fun x -> match index_of t x with None -> 0 | Some i -> degree t i);
  }

let thaw t =
  let g = Graph.create () in
  Array.iter (fun x -> Graph.add_as g x) t.ids;
  iter_provider_customer_links t (fun ~provider ~customer ->
      Graph.add_provider_customer g ~provider:t.ids.(provider)
        ~customer:t.ids.(customer));
  iter_peering_links t (fun i j -> Graph.add_peering g t.ids.(i) t.ids.(j));
  g

(* ------------------------------------------------------------------ *)
(* Incremental freeze: batch row splices                               *)

module Delta = struct
  type link = Peer of int * int | Transit of { provider : int; customer : int }
  type edit = Link_up of link | Link_down of link

  let endpoints (Link_up l | Link_down l) =
    match l with
    | Peer (i, j) -> (i, j)
    | Transit { provider; customer } -> (provider, customer)

  (* A batch is validated once, against one overlay of link states keyed
     by normalized pair (lo, hi): a pair's state is its overlay entry once
     an earlier edit of the batch set one, else the base core's.  That is
     the sequential semantics, up-down-up chains on one pair included, and
     the pairs whose final state differs from the base are exactly the
     ones the splice changes. *)
  type state = Absent | Peered | Transit_pc of { provider : int }

  let base_state t lo hi =
    if mem_peer t lo hi then Peered
    else if mem_customer t lo hi then Transit_pc { provider = lo }
    else if mem_customer t hi lo then Transit_pc { provider = hi }
    else Absent

  exception Inapplicable of string

  let final_states t edits =
    let n = num_ases t in
    let fail fmt = Printf.ksprintf (fun m -> raise (Inapplicable m)) fmt in
    let as_ i = Printf.sprintf "AS%d" (Asn.to_int t.ids.(i)) in
    let check_index i =
      if i < 0 || i >= n then fail "index %d outside [0, %d)" i n
    in
    let overlay = Hashtbl.create 16 in
    List.iter
      (fun edit ->
        let i, j = endpoints edit in
        check_index i;
        check_index j;
        if i = j then fail "self-link on %s" (as_ i);
        let lo, hi = if i < j then (i, j) else (j, i) in
        let state =
          match Hashtbl.find_opt overlay (lo, hi) with
          | Some s -> s
          | None -> base_state t lo hi
        in
        let next =
          match edit with
          | Link_up _ when state <> Absent ->
              fail "%s and %s are already linked" (as_ i) (as_ j)
          | Link_up (Peer _) -> Peered
          | Link_up (Transit _) -> Transit_pc { provider = i }
          | Link_down (Peer _) ->
              if state <> Peered then
                fail "%s and %s are not peers" (as_ i) (as_ j);
              Absent
          | Link_down (Transit _) ->
              if state <> Transit_pc { provider = i } then
                fail "%s is not a provider of %s" (as_ i) (as_ j);
              Absent
        in
        Hashtbl.replace overlay (lo, hi) next)
      edits;
    overlay

  (* Row [r] with its changes [(v, present)], ascending by [v], merged
     in; validation guarantees that a removed [v] is in [r] and an added
     one is not.  An emptied row is the shared [[||]]. *)
  let merge_row r changes =
    let len =
      List.fold_left
        (fun len (_, present) -> if present then len + 1 else len - 1)
        (Array.length r) changes
    in
    let r' = Array.make len 0 in
    let src = ref 0 and dst = ref 0 in
    let copy_below v =
      while !src < Array.length r && r.(!src) < v do
        r'.(!dst) <- r.(!src);
        incr src;
        incr dst
      done
    in
    List.iter
      (fun (v, present) ->
        copy_below v;
        if present then begin
          r'.(!dst) <- v;
          incr dst
        end
        else incr src)
      changes;
    copy_below max_int;
    r'

  (* One class with its directed changes [(row, v, present)] spliced in,
     each (row, v) at most once: the block table is copied once, each
     block holding a changed row once, and each changed row is merged
     once.  Every other block and row is shared with [rows], which is
     never written.  No change: the class itself is shared. *)
  let splice_class (rows : rows) changes =
    if changes = [] then rows
    else begin
      let rows' = Array.copy rows in
      let rec take_row i acc = function
        | (i', v, present) :: rest when i' = i ->
            take_row i ((v, present) :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let rec splice = function
        | [] -> ()
        | (i, _, _) :: _ as changes ->
            let mine, rest = take_row i [] changes in
            let b = i lsr block_bits in
            if rows'.(b) == rows.(b) then rows'.(b) <- Array.copy rows.(b);
            rows'.(b).(i land (block - 1)) <- merge_row (row rows i) mine;
            splice rest
      in
      splice (List.sort compare changes);
      rows'
    end

  let apply_batch t edits =
    match final_states t edits with
    | exception Inapplicable reason -> Error reason
    | _ when edits = [] -> Ok t
    | overlay ->
        let peer = ref [] and cust = ref [] and prov = ref [] in
        let change present lo hi = function
          | Absent -> ()
          | Peered -> peer := (lo, hi, present) :: (hi, lo, present) :: !peer
          | Transit_pc { provider } ->
              let customer = if provider = lo then hi else lo in
              cust := (provider, customer, present) :: !cust;
              prov := (customer, provider, present) :: !prov
        in
        Hashtbl.iter
          (fun (lo, hi) final ->
            let base = base_state t lo hi in
            if final <> base then begin
              change false lo hi base;
              change true lo hi final
            end)
          overlay;
        let net changes =
          List.fold_left
            (fun acc (_, _, present) -> if present then acc + 1 else acc - 1)
            0 changes
        in
        List.iter
          (function
            | Link_up _ -> Obs.incr "topology.delta.add"
            | Link_down _ -> Obs.incr "topology.delta.remove")
          edits;
        Obs.incr "topology.delta.batch";
        Ok
          {
            t with
            peer = splice_class t.peer !peer;
            cust = splice_class t.cust !cust;
            prov = splice_class t.prov !prov;
            n_p2p = t.n_p2p + (net !peer / 2);
            n_p2c = t.n_p2c + net !cust;
          }
end

(* ------------------------------------------------------------------ *)
(* Subgraph restriction masks                                          *)

module Mask = struct
  (* Immutable: every operation copies the (small) blocked state, so a
     mask can be kept as part of a memo key or snapshotted per query
     while churn events derive new masks from it. *)
  type mask = {
    m_width : int;
    blocked : Bitset.t;  (** excluded AS indices *)
    down : (int * int) list;  (** excluded links, normalized lo < hi, sorted *)
  }

  let merr name fmt =
    Printf.ksprintf
      (fun msg -> invalid_arg ("Compact.Mask." ^ name ^ ": " ^ msg))
      fmt

  let all t =
    let m_width = num_ases t in
    { m_width; blocked = Bitset.create ~width:m_width; down = [] }

  let width m = m.m_width

  let check name m i =
    if i < 0 || i >= m.m_width then
      merr name "index %d outside [0, %d)" i m.m_width

  let exclude_as m i =
    check "exclude_as" m i;
    let blocked = Bitset.copy m.blocked in
    Bitset.add blocked i;
    { m with blocked }

  let norm name m i j =
    check name m i;
    check name m j;
    if i = j then merr name "self-link on index %d" i;
    if i < j then (i, j) else (j, i)

  let rec insert_link l ij =
    match l with
    | [] -> [ ij ]
    | hd :: tl ->
        let c = compare hd ij in
        if c = 0 then l
        else if c < 0 then hd :: insert_link tl ij
        else ij :: l

  let exclude_link m i j =
    let ij = norm "exclude_link" m i j in
    { m with down = insert_link m.down ij }

  let restore_link m i j =
    let ij = norm "restore_link" m i j in
    { m with down = List.filter (fun x -> x <> ij) m.down }

  let allows_as m i = not (Bitset.mem m.blocked i)

  let allows_link m i j =
    let ij = if i < j then (i, j) else (j, i) in
    allows_as m i && allows_as m j && not (List.mem ij m.down)

  let is_trivial m = m.down = [] && Bitset.is_empty m.blocked
  let excluded_ases m = Bitset.to_list m.blocked
  let excluded_links m = m.down

  let equal a b =
    a.m_width = b.m_width && a.down = b.down && Bitset.equal a.blocked b.blocked
end

(* ------------------------------------------------------------------ *)
(* Versioned binary snapshots                                          *)

module Snapshot = struct
  let format_version = 2
  let magic = "PANSNAPS"

  (* Layout (all integers little-endian):
       0   8  magic "PANSNAPS"
       8   4  format version (u32)
      12   8  payload length in bytes (u64)
      20  16  MD5 digest of the payload
      36  ..  payload: the core, that is the interned-ASN table and the
              three CSR relationship classes *)

  let header_len = 36

  let err fmt = Printf.ksprintf invalid_arg ("Compact.Snapshot.load: " ^^ fmt)

  let add_u64 buf n = Buffer.add_int64_le buf (Int64.of_int n)

  (* Decoding reads straight off the full snapshot string through a
     bounded cursor — no payload substring copy, which matters at CAIDA
     scale (a copy per load would triple the allocation the GC has to
     chew through). *)
  type cursor = { s : string; mutable pos : int; limit : int }

  (* The word at [pos]: a u64 field whose value does not fit in an OCaml
     int is rejected here, since [Int64.to_int] would drop its bit 63 and
     two images would decode alike. *)
  let[@inline] word_at s pos =
    let v = String.get_int64_le s pos in
    if not (Int64.equal (Int64.of_int (Int64.to_int v)) v) then
      err "word 0x%016Lx at byte offset %d does not fit in a 63-bit int" v pos;
    Int64.to_int v

  (* A table or array entry: its range is checked by the caller, which
     knows what the word means. *)
  let read_word cur =
    if cur.pos + 8 > cur.limit then
      err "truncated payload (need 8 bytes at byte offset %d, have %d)" cur.pos
        (cur.limit - cur.pos);
    let v = word_at cur.s cur.pos in
    cur.pos <- cur.pos + 8;
    v

  let read_u64 cur =
    let v = read_word cur in
    if v < 0 then err "negative length field at byte offset %d" (cur.pos - 8);
    v

  (* An array's length word: returns the length and the byte offset of
     its first word, and leaves the cursor past its last. *)
  let skip_array cur =
    let n = read_u64 cur in
    (* [8 * n] could overflow; the division cannot *)
    if n > (cur.limit - cur.pos) / 8 then
      err "truncated payload (array of %d words at byte offset %d)" n cur.pos;
    let pos = cur.pos in
    cur.pos <- pos + (8 * n);
    (n, pos)

  (* Each class is written as CSR, the layout since format version 1: the
     n + 1 row offsets (prefix sums of the row lengths), then the rows'
     entries back to back, each array behind its length word. *)
  let encode_core t =
    let n = num_ases t in
    let buf = Buffer.create (64 * n) in
    add_u64 buf n;
    Array.iter (fun x -> add_u64 buf (Asn.to_int x)) t.ids;
    List.iter
      (fun rows ->
        add_u64 buf (n + 1);
        add_u64 buf 0;
        let len = ref 0 in
        for i = 0 to n - 1 do
          len := !len + Array.length (row rows i);
          add_u64 buf !len
        done;
        add_u64 buf !len;
        for i = 0 to n - 1 do
          Array.iter (add_u64 buf) (row rows i)
        done)
      [ t.prov; t.peer; t.cust ];
    add_u64 buf t.n_p2c;
    add_u64 buf t.n_p2p;
    Buffer.contents buf

  (* A decoded class, and where its words sit in the image: the mirror
     check names byte offsets. *)
  type decoded = {
    name : string;
    rows : rows;
    off : int -> int;  (** offset [i], read from the image *)
    adj_pos : int;  (** byte offset of the class's first entry *)
    len : int;  (** entries in the class *)
  }

  let decode_core s pos limit =
    let cur = { s; pos; limit } in
    let n = read_u64 cur in
    if n > (cur.limit - cur.pos) / 8 then
      err "truncated payload (ASN table of %d entries at byte offset %d)" n
        cur.pos;
    (* interning is a binary search over [ids] *)
    let ids_pos = cur.pos in
    let prev = ref (-1) in
    let ids =
      Array.init n (fun i ->
          let v = read_word cur in
          if v <= !prev then
            err "ASN table entry %d at byte offset %d %s" v
              (ids_pos + (8 * i))
              (if v < 0 then "is negative"
               else
                 Printf.sprintf "does not exceed the previous entry %d" !prev);
          prev := v;
          Asn.of_int v)
    in
    (* Every row is checked once, in one linear pass, as it is read out of
       the image: the rows are read with unchecked indexing afterwards, so
       a resealed image with a stray entry must fail here, at its byte
       offset. *)
    let read_rows name =
      let off_n, off_pos = skip_array cur in
      let len, adj_pos = skip_array cur in
      if off_n <> n + 1 then
        err "%s offsets: expected %d entries, found %d at byte offset %d" name
          (n + 1) off_n (off_pos - 8);
      let off i = word_at s (off_pos + (8 * i)) in
      let uncovered i want =
        err
          "%s offsets do not cover the adjacency array: offset %d is %d, not \
           %d, at byte offset %d"
          name i (off i) want
          (off_pos + (8 * i))
      in
      if off 0 <> 0 then uncovered 0 0;
      if off n <> len then uncovered n len;
      (* [table] reads the rows in order: a row starts where the previous
         one ended *)
      let start = ref 0 in
      let rows =
        table n (fun i ->
            let lo = !start and hi = off (i + 1) in
            (* [off n] is the class's length, so an offset past it implies
               a later decrease *)
            if hi < lo || hi > len then
              err "%s offsets decrease after row %d at byte offset %d" name i
                (off_pos + (8 * (i + 1)));
            let r = if hi = lo then [||] else Array.make (hi - lo) 0 in
            let prev = ref (-1) in
            for k = 0 to hi - lo - 1 do
              let pos = adj_pos + (8 * (lo + k)) in
              let v = word_at s pos in
              (* [prev] starts below 0: a negative first entry fails here *)
              if v <= !prev || v >= n || v = i then
                err "%s row %d: entry %d %s at byte offset %d" name i v
                  (if v < 0 || v >= n then
                     Printf.sprintf "out of range [0, %d)" n
                   else if v = i then "is the row's own index"
                   else "breaks strictly ascending order")
                  pos;
              r.(k) <- v;
              prev := v
            done;
            start := hi;
            r)
      in
      { name; rows; off; adj_pos; len }
    in
    let prov = read_rows "provider" in
    let peer = read_rows "peer" in
    let cust = read_rows "customer" in
    let counts_pos = cur.pos in
    let n_p2c = read_u64 cur in
    let n_p2p = read_u64 cur in
    if n_p2c <> prov.len || n_p2c <> cust.len then
      err
        "provider-customer link count %d does not match the provider (%d) \
         and customer (%d) adjacency lengths at byte offset %d"
        n_p2c prov.len cust.len counts_pos;
    if 2 * n_p2p <> peer.len then
      err
        "peering link count %d does not match the peer adjacency length %d \
         at byte offset %d"
        n_p2p peer.len (counts_pos + 8);
    if cur.pos <> cur.limit then
      err "core section has %d trailing bytes at byte offset %d"
        (cur.limit - cur.pos) cur.pos;
    (* Class [a] must be the transpose of class [b]: j in row i of [a]
       iff i in row j of [b].  Rows of [a] are walked ascending, so the
       rows of [a] that hold j are met in the order row j of [b] lists
       them: [next.(j)] is the first entry of row j of [b] not yet met,
       and each entry j of row i must meet i there.  The link counts
       above make both classes equally long, so once every entry of [a]
       has met one, every entry of [b] has been met. *)
    let check_mirror a b =
      (* entry [k] of row [i] of [cls] names row [j] of [other] *)
      let unmirrored cls i k other j =
        err "%s row %d: entry %d has no mirror in %s row %d at byte offset %d"
          cls.name i j other.name j
          (cls.adj_pos + (8 * (cls.off i + k)))
      in
      let next = Array.make n 0 in
      for i = 0 to n - 1 do
        let r = row a.rows i in
        for k = 0 to Array.length r - 1 do
          let j = r.(k) in
          let c = next.(j) and rj = row b.rows j in
          if c = Array.length rj || rj.(c) <> i then
            (* an entry below i was met by no row of [a] before i *)
            if c < Array.length rj && rj.(c) < i then
              unmirrored b j c a rj.(c)
            else unmirrored a i k b j;
          next.(j) <- c + 1
        done
      done
    in
    check_mirror peer peer;
    check_mirror prov cust;
    { ids; prov = prov.rows; peer = peer.rows; cust = cust.rows; n_p2c; n_p2p }

  let to_string t =
    let payload = encode_core t in
    let out = Buffer.create (header_len + String.length payload) in
    Buffer.add_string out magic;
    Buffer.add_int32_le out (Int32.of_int format_version);
    add_u64 out (String.length payload);
    Buffer.add_string out (Digest.string payload);
    Buffer.add_string out payload;
    Buffer.contents out

  let of_string s =
    if String.length s < header_len then
      err "truncated header (file ends at byte offset %d, need at least %d)"
        (String.length s) header_len;
    if String.sub s 0 8 <> magic then
      err "bad magic %S (not a panagree snapshot)" (String.sub s 0 8);
    let version = Int32.to_int (String.get_int32_le s 8) in
    if version <> format_version then
      err "unsupported format version %d (this build reads version %d)"
        version format_version;
    (* the length word is outside the checksum *)
    let payload_len = read_u64 { s; pos = 12; limit = header_len } in
    let digest = String.sub s 20 16 in
    if String.length s - header_len < payload_len then
      err
        "truncated payload (header declares %d bytes, file ends at byte \
         offset %d)"
        payload_len (String.length s);
    if String.length s - header_len > payload_len then
      err "payload has %d trailing bytes at byte offset %d"
        (String.length s - header_len - payload_len)
        (header_len + payload_len);
    if not (String.equal (Digest.substring s header_len payload_len) digest)
    then
      err "checksum mismatch (corrupt snapshot payload in bytes %d..%d)"
        header_len
        (header_len + payload_len - 1);
    decode_core s header_len (String.length s)

  let save path t =
    let data = to_string t in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

  let load path =
    let data = In_channel.with_open_bin path In_channel.input_all in
    let t = of_string data in
    Obs.incr "topology.snapshot.load";
    Obs.incr ~by:(num_ases t) "topology.snapshot.ases";
    t
end
