open Pan_topology
module Obs = Pan_obs.Obs

(* ------------------------------------------------------------------ *)
(* Deterministic Yen-style K shortest paths over the CSR               *)

(* Paths are dense-index lists; order is (hops, then forward
   lexicographic on the index sequence), which makes the enumeration a
   pure function of the frozen view + restriction — no hashing, no
   iteration-order dependence.

   A spur search is a FIFO BFS backwards from dst that stops the moment
   it labels the spur node: FIFO order labels nodes level by level, so
   by then every node closer to dst carries its final distance, which is
   all the walk reads.  The walk reconstructs the lexicographically
   smallest minimum-hop path by always stepping to the smallest-index
   allowed neighbor one level closer to the destination.

   All spur searches of one [k_shortest] call share one scratch, so a
   search allocates only the path it returns.  Marks are stamped against
   [base], which every search raises by [n]: [dist.(v) - base] is v's
   distance iff [dist.(v) >= base], and v is blocked iff
   [blocked.(v) >= base] — a root node of the current spur (stamped
   [base]) or an AS the mask excludes (stamped [max_int]).  Every link a
   Yen spur blocks starts at the spur, so the blocked links are kept as
   the spur's forbidden next hops [avoid]. *)

type scratch = {
  topo : Compact.t;
  dist : int array;
  blocked : int array;
  queue : int array;
  down : (int * int) list;  (** the mask's excluded links, (lo, hi) *)
  edge_ok : (int -> int -> bool) option;
  mutable base : int;
  mutable tail : int;
  mutable spur : int;
  mutable avoid : int list;
  mutable cur : int;  (** node being expanded or walked from *)
  mutable best : int;
  relax : int -> unit;  (** BFS step from [cur] to a neighbor *)
  pick : int -> unit;  (** walk step from [cur] to a neighbor *)
}

exception Labelled

let rec link_mem (lo : int) (hi : int) = function
  | [] -> false
  | (a, b) :: tl -> (a = lo && b = hi) || link_mem lo hi tl

let link_ok s u v =
  (match s.down with
  | [] -> true
  | down -> not (if u < v then link_mem u v down else link_mem v u down))
  && (if u = s.spur then not (List.mem v s.avoid)
      else v <> s.spur || not (List.mem u s.avoid))
  && match s.edge_ok with None -> true | Some f -> f u v

let relax s v =
  if s.dist.(v) < s.base && s.blocked.(v) < s.base && link_ok s s.cur v then (
    s.dist.(v) <- s.dist.(s.cur) + 1;
    if v = s.spur then raise_notrace Labelled;
    s.queue.(s.tail) <- v;
    s.tail <- s.tail + 1)

(* Off dst, [dist.(cur) - 1 >= base]: a match is labelled, so unblocked *)
let pick s v =
  if
    (s.best < 0 || v < s.best)
    && s.dist.(v) = s.dist.(s.cur) - 1
    && link_ok s s.cur v
  then s.best <- v

let scratch topo mask edge_ok =
  let n = Compact.num_ases topo in
  let dist = Array.make n (-1) and blocked = Array.make n (-1) in
  List.iter (fun v -> blocked.(v) <- max_int) (Compact.Mask.excluded_ases mask);
  let rec s =
    {
      topo;
      dist;
      blocked;
      queue = Array.make n 0;
      down = Compact.Mask.excluded_links mask;
      edge_ok;
      base = -n;
      tail = 0;
      spur = -1;
      avoid = [];
      cur = -1;
      best = -1;
      relax = (fun v -> relax s v);
      pick = (fun v -> pick s v);
    }
  in
  s

(* The lex-smallest minimum-hop path from [p.(i)] to [dst] that avoids
   the root nodes [p.(0) .. p.(i - 1)] and the spur's links to [avoid]. *)
let shortest_path s p i ~avoid ~dst =
  s.base <- s.base + Array.length s.dist;
  let base = s.base in
  for j = 0 to i - 1 do
    s.blocked.(p.(j)) <- base
  done;
  let spur = p.(i) in
  s.spur <- spur;
  s.avoid <- avoid;
  s.dist.(dst) <- base;
  s.queue.(0) <- dst;
  s.tail <- 1;
  let head = ref 0 in
  (if spur <> dst then
     try
       while !head < s.tail do
         s.cur <- s.queue.(!head);
         incr head;
         Compact.iter_neighbors s.topo s.cur s.relax
       done
     with Labelled -> ());
  if s.dist.(spur) < base then None
  else
    let rec walk u =
      if u = dst then [ u ]
      else (
        s.cur <- u;
        s.best <- -1;
        Compact.iter_neighbors s.topo u s.pick;
        (* the labels were set over exactly these links, so a next hop
           always exists *)
        assert (s.best >= 0);
        u :: walk s.best)
    in
    Some (walk spur)

(* (hops, lex) total order on index paths *)
let compare_paths p1 p2 =
  match compare (List.length p1) (List.length p2) with
  | 0 -> compare p1 p2
  | c -> c

let rec insert_sorted p = function
  | [] -> [ p ]
  | hd :: tl as l ->
      let c = compare_paths hd p in
      if c = 0 then l else if c < 0 then hd :: insert_sorted p tl else p :: l

let rec take_prefix k l =
  if k = 0 then []
  else match l with [] -> [] | x :: tl -> x :: take_prefix (k - 1) tl

let k_shortest topo ?mask ?edge_ok ?max_hops ~src ~dst ~k () =
  if k < 1 then invalid_arg "Candidates.k_shortest: k must be >= 1";
  let n = Compact.num_ases topo in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Candidates.k_shortest: endpoint outside [0, num_ases)";
  let mask = match mask with Some m -> m | None -> Compact.Mask.all topo in
  let within_hops p =
    match max_hops with None -> true | Some h -> List.length p <= h
  in
  if not (Compact.Mask.allows_as mask src && Compact.Mask.allows_as mask dst)
  then []
  else
    let s = scratch topo mask edge_ok in
    match shortest_path s [| src |] 0 ~avoid:[] ~dst with
    | None -> []
    | Some first when not (within_hops first) -> []
    | Some first ->
        let accepted = ref [ first ] in
        let frontier = ref [] in
        (* candidate paths, sorted ascending, deduplicated *)
        let continue = ref true in
        while List.length !accepted < k && !continue do
          let last = List.nth !accepted (List.length !accepted - 1) in
          let last_arr = Array.of_list last in
          let len = Array.length last_arr in
          (* One spur per position along the last accepted path. *)
          for i = 0 to len - 2 do
            let root = Array.sub last_arr 0 (i + 1) in
            (* next hops of the accepted paths that share this root *)
            let avoid =
              List.filter_map
                (fun p ->
                  let p_arr = Array.of_list p in
                  if
                    Array.length p_arr > i + 1
                    && Array.sub p_arr 0 (i + 1) = root
                  then Some p_arr.(i + 1)
                  else None)
                !accepted
            in
            match shortest_path s last_arr i ~avoid ~dst with
            | None -> ()
            | Some spur_path ->
                let total = Array.to_list (Array.sub root 0 i) @ spur_path in
                if
                  within_hops total
                  && (not (List.mem total !accepted))
                  && not (List.exists (fun p -> p = total) !frontier)
                then frontier := insert_sorted total !frontier
          done;
          match !frontier with
          | [] -> continue := false
          | best :: rest ->
              frontier := rest;
              accepted := !accepted @ [ best ]
        done;
        take_prefix k !accepted

(* ------------------------------------------------------------------ *)
(* Intent-driven candidate generation                                  *)

type result = { path : Asn.t list; score : float; hops : int }

let mask_of_intent ?mask topo (intent : Intent.t) =
  let m = match mask with Some m -> m | None -> Compact.Mask.all topo in
  let m =
    List.fold_left
      (fun m asn ->
        match Compact.index_of topo asn with
        | Some i -> Compact.Mask.exclude_as m i
        | None -> m)
      m intent.exclude_as
  in
  List.fold_left
    (fun m (a, b) ->
      match (Compact.index_of topo a, Compact.index_of topo b) with
      | Some i, Some j when i <> j -> Compact.Mask.exclude_link m i j
      | _ -> m)
    m intent.exclude_link

let generate ~topo ~(metric : Metric.ctx)
    ?(attrs = Intent.default_attrs) ?mask (intent : Intent.t) ~src ~dst =
  Obs.with_span "intent.candidates" @@ fun () ->
  let s = Compact.index_of_exn topo src in
  let d = Compact.index_of_exn topo dst in
  if s = d then invalid_arg "Candidates.generate: src = dst";
  let mask = mask_of_intent ?mask topo intent in
  (* Geo fence: an AS with no known location cannot be shown to lie
     inside the fence, so it is excluded.  Decisions are memoized per
     query — fences touch only the ASes the search actually visits. *)
  let fence_ok =
    match intent.geo_fence with
    | None -> fun _ -> true
    | Some { center; radius_km } ->
        let memo = Array.make (Compact.num_ases topo) 0 in
        fun i ->
          if memo.(i) = 0 then
            memo.(i) <-
              (match metric.Metric.as_location (Compact.id topo i) with
              | loc -> if Geo.distance_km center loc <= radius_km then 1 else 2
              | exception Not_found -> 2);
          memo.(i) = 1
  in
  let require_ok =
    match intent.require with
    | [] -> fun _ _ -> true
    | req ->
        fun i j ->
          let have = attrs (Compact.id topo i) (Compact.id topo j) in
          List.for_all (fun a -> List.mem a have) req
  in
  (* No fence and no requirement: no predicate, so the spur searches
     make no call per relaxed link. *)
  let edge_ok =
    match (intent.geo_fence, intent.require) with
    | None, [] -> None
    | _ -> Some (fun i j -> fence_ok i && fence_ok j && require_ok i j)
  in
  if not (fence_ok s && fence_ok d) then []
  else
    let paths =
      k_shortest topo ~mask ?edge_ok ?max_hops:intent.max_hops ~src:s ~dst:d
        ~k:intent.k ()
    in
    Obs.incr ~by:(List.length paths) "intent.candidates.paths";
    paths
    |> List.map (fun p ->
           let ases = List.map (Compact.id topo) p in
           {
             path = ases;
             score = Metric.score metric intent.metric ases;
             hops = List.length ases;
           })
    |> List.stable_sort (fun a b ->
           match compare a.score b.score with
           | 0 -> (
               match compare a.hops b.hops with
               | 0 -> compare a.path b.path
               | c -> c)
           | c -> c)
