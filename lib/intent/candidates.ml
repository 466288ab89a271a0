open Pan_topology
module Obs = Pan_obs.Obs

(* ------------------------------------------------------------------ *)
(* Deterministic Yen-style K shortest paths over the CSR               *)

(* Paths are dense-index arrays; order is (hops, then forward
   lexicographic on the index sequence), which makes the enumeration a
   pure function of the frozen view + restriction — no hashing, no
   iteration-order dependence.

   Every search is a FIFO BFS backwards from dst.  FIFO order labels
   nodes level by level, so once it labels a node v every node closer
   to dst carries its final distance, which is all a walk from v reads.
   The walk reconstructs the lexicographically smallest minimum-hop path
   by always stepping to the smallest-index allowed neighbor one level
   closer to the destination.

   A call keeps one such search over the masked subgraph with no root
   node blocked — the labelling d0 — and grows it lazily: it expands
   only until the node a spur asks about is labelled, and resumes from
   there for the next spur.  A spur p.(i) (root nodes p.(0) .. p.(i-1),
   forbidden next hops [avoid]) is answered from it when that provably
   matches the restricted search.  Let w be its smallest-index allowed
   first hop of least d0.  If d0(w) <= d0(p.(i)) and d0(w) <= d0(x) for
   every labelled root node x, then every node below w on a d0-shortest
   path is closer to dst than the spur and every root node, so no
   blocked node or link changes those paths, and the answer is the spur
   followed by the d0-walk from w (DESIGN §6g).  Otherwise a restricted
   search runs for that spur alone.  Below the first hop the d0-walk
   does not depend on the spur, so its steps are memoized per node.

   Marks are stamped against [base], which a restricted search raises by
   [n + 1]: [dist.(v) - base] is v's distance iff it lies in [0, n), a
   root node of the current spur is stamped [base + n] and an AS the
   mask excludes [max_int], so neither is ever relaxed or walked to.
   Every link a Yen spur blocks starts at the spur, so the blocked links
   are kept as the spur's forbidden next hops [avoid]. *)

type search = {
  topo : Compact.t;
  dist : int array;
  queue : int array;
  down : (int * int) list;  (** the mask's excluded links, (lo, hi) *)
  edge_ok : (int -> int -> bool) option;
  mutable base : int;
  mutable head : int;
  mutable tail : int;
  mutable spur : int;  (** node the search stops at on labelling it *)
  mutable avoid : int list;  (** [spur]'s forbidden next hops *)
  mutable cur : int;  (** node being expanded or walked from *)
  mutable best : int;  (** smallest match of the current row scan *)
  relax : int -> unit;  (** BFS step from [cur] to a neighbor *)
  pick : int -> unit;  (** walk step from [cur] to a neighbor *)
}

(* Ends a BFS expansion that labelled its stop node, or a row scan *)
exception Stop

let rec link_mem (lo : int) (hi : int) = function
  | [] -> false
  | (a, b) :: tl -> (a = lo && b = hi) || link_mem lo hi tl

let link_ok s u v =
  (match s.down with
  | [] -> true
  | down -> not (if u < v then link_mem u v down else link_mem v u down))
  && (match s.avoid with
     | [] -> true
     | avoid ->
         if u = s.spur then not (List.mem v avoid)
         else v <> s.spur || not (List.mem u avoid))
  && match s.edge_ok with None -> true | Some f -> f u v

let relax s v =
  if s.dist.(v) < s.base && link_ok s s.cur v then (
    s.dist.(v) <- s.dist.(s.cur) + 1;
    s.queue.(s.tail) <- v;
    s.tail <- s.tail + 1;
    if v = s.spur then raise_notrace Stop)

(* [cur] is labelled at distance >= 1, so a match is labelled too *)
let pick s v =
  if v >= s.best then raise_notrace Stop
  else if s.dist.(v) = s.dist.(s.cur) - 1 && link_ok s s.cur v then (
    s.best <- v;
    raise_notrace Stop)

(* The smallest-index neighbor of [u] that [f] takes, or -1.  Each
   relationship-class row is ascending, so [f] stops a row at its first
   match (recorded in [s.best]) or once it passes [s.best]. *)
let smallest s u f =
  s.best <- max_int;
  (try Compact.iter_providers s.topo u f with Stop -> ());
  (try Compact.iter_peers s.topo u f with Stop -> ());
  (try Compact.iter_customers s.topo u f with Stop -> ());
  if s.best = max_int then -1 else s.best

let search topo mask edge_ok =
  let n = Compact.num_ases topo in
  let dist = Array.make n (-1) in
  List.iter (fun v -> dist.(v) <- max_int) (Compact.Mask.excluded_ases mask);
  let rec s =
    {
      topo;
      dist;
      queue = Array.make n 0;
      down = Compact.Mask.excluded_links mask;
      edge_ok;
      base = -n - 1;
      head = 0;
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

(* Start over from [dst]: every label and root mark of earlier searches
   lapses *)
let restart s ~dst =
  s.base <- s.base + Array.length s.dist + 1;
  s.dist.(dst) <- s.base;
  s.queue.(0) <- dst;
  s.head <- 0;
  s.tail <- 1

(* v's distance, negative while v is unlabelled *)
let level s v = s.dist.(v) - s.base

(* The head's row is expanded again if [Stop] cut it short, which
   relabels nothing, so interrupted growth resumes in FIFO order. *)
let expand s =
  s.cur <- s.queue.(s.head);
  Compact.iter_neighbors s.topo s.cur s.relax;
  s.head <- s.head + 1

(* Grow until [v] is labelled or nothing is left to expand *)
let label s v =
  s.spur <- v;
  try
    while s.dist.(v) < s.base && s.head < s.tail do
      expand s
    done
  with Stop -> ()

(* Grow until every node at distance [d] is labelled *)
let complete_level s d =
  s.spur <- -1;
  while s.head < s.tail && level s s.queue.(s.head) < d do
    expand s
  done

let next_hop s u =
  s.cur <- u;
  let v = smallest s u s.pick in
  (* the labels were set over exactly these links, so a next hop
     always exists *)
  assert (v >= 0);
  v

(* [p.(0) .. p.(m - 1)], then [first], then [f] of the previous AS, up
   to [len] ASes *)
let walk p m first len f =
  let q = Array.make len first in
  Array.blit p 0 q 0 m;
  for j = m + 1 to len - 1 do
    q.(j) <- f q.(j - 1)
  done;
  q

(* The root nodes [p.(0) .. p.(i - 1)], then the lex-smallest
   minimum-hop path from [p.(i)] to [dst] that avoids them and the
   spur's links to [avoid], if at most [max_len] ASes in all. *)
let restricted s p i ~avoid ~dst ~max_len =
  restart s ~dst;
  let root = s.base + Array.length s.dist in
  for j = 0 to i - 1 do
    s.dist.(p.(j)) <- root
  done;
  s.avoid <- avoid;
  let spur = p.(i) in
  label s spur;
  let d = level s spur in
  if d < 0 || i + 1 + d > max_len then None
  else Some (walk p i spur (i + 1 + d) (next_hop s))

(* The d0-walk's step from [u], memoized in [memo] *)
let step l memo u =
  if memo.(u) < 0 then memo.(u) <- next_hop l u;
  memo.(u)

(* The smallest-index allowed first hop from [p.(i)] at d0 = [d] *)
let first_hop l p i ~avoid d =
  let spur = p.(i) in
  let rec is_root v j = j < i && (p.(j) = v || is_root v (j + 1)) in
  smallest l spur (fun w ->
      if w >= l.best then raise_notrace Stop
      else if
        level l w = d
        && link_ok l spur w
        && (not (List.mem w avoid))
        && not (is_root w 0)
      then (
        l.best <- w;
        raise_notrace Stop))

(* The least d0 of a labelled root node of spur [p.(i)] *)
let nearest_root l p i =
  let r = ref max_int in
  for j = 0 to i - 1 do
    let d = level l p.(j) in
    if d >= 0 && d < !r then r := d
  done;
  !r

(* [restricted] for spur [p.(i)], from the labelling [l] when the reuse
   condition holds, else from the search [fallback] *)
let spur_path l memo fallback p i ~avoid ~dst ~max_len =
  let spur = p.(i) in
  label l spur;
  let ds = level l spur in
  (* the restricted distance is at least d0 *)
  if ds < 0 || i + 1 + ds > max_len then None
  else
    (* every node at d0 < ds is labelled *)
    let r = nearest_root l p i in
    let w =
      if r < ds - 1 then -1
      else
        match first_hop l p i ~avoid (ds - 1) with
        | -1 when r >= ds ->
            complete_level l ds;
            first_hop l p i ~avoid ds
        | w -> w
    in
    if w < 0 then restricted (Lazy.force fallback) p i ~avoid ~dst ~max_len
    else
      let len = i + 2 + level l w in
      if len > max_len then None else Some (walk p (i + 1) w len (step l memo))

(* (hops, lex) total order on index paths *)
let compare_paths (p : int array) (q : int array) =
  match compare (Array.length p) (Array.length q) with
  | 0 ->
      let rec go j =
        if j = Array.length p then 0
        else match compare p.(j) q.(j) with 0 -> go (j + 1) | c -> c
      in
      go 0
  | c -> c

let rec insert_sorted p = function
  | [] -> [ p ]
  | hd :: tl as l ->
      let c = compare_paths hd p in
      if c = 0 then l else if c < 0 then hd :: insert_sorted p tl else p :: l

(* [p] and [q] agree on their first [m] ASes *)
let rec same_prefix p q m =
  m = 0 || (p.(m - 1) = q.(m - 1) && same_prefix p q (m - 1))

let k_shortest topo ?mask ?edge_ok ?max_hops ~src ~dst ~k () =
  if k < 1 then invalid_arg "Candidates.k_shortest: k must be >= 1";
  let n = Compact.num_ases topo in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Candidates.k_shortest: endpoint outside [0, num_ases)";
  let mask = match mask with Some m -> m | None -> Compact.Mask.all topo in
  let max_len = Option.value max_hops ~default:max_int in
  if not (Compact.Mask.allows_as mask src && Compact.Mask.allows_as mask dst)
  then []
  else if k = 1 then
    match
      restricted (search topo mask edge_ok) [| src |] 0 ~avoid:[] ~dst
        ~max_len
    with
    | None -> []
    | Some p -> [ Array.to_list p ]
  else
    let l = search topo mask edge_ok in
    restart l ~dst;
    label l src;
    let d = level l src in
    if d < 0 || d + 1 > max_len then []
    else
      let memo = Array.make n (-1) in
      let fallback = lazy (search topo mask edge_ok) in
      (* [accepted]: the accepted paths, newest ([last]) first;
         [frontier]: the candidate paths, sorted ascending and
         deduplicated *)
      let rec grow count last accepted frontier =
        if count = k then accepted
        else
          let frontier = ref frontier in
          (* One spur per position along the last accepted path.  A spur
             path leaves its root by a hop no accepted path sharing the
             root takes, so it is never an accepted path. *)
          for i = 0 to Array.length last - 2 do
            let avoid =
              List.filter_map
                (fun p ->
                  if Array.length p > i + 1 && same_prefix p last (i + 1)
                  then Some p.(i + 1)
                  else None)
                accepted
            in
            match spur_path l memo fallback last i ~avoid ~dst ~max_len with
            | None -> ()
            | Some p -> frontier := insert_sorted p !frontier
          done;
          match !frontier with
          | [] -> accepted
          | best :: rest -> grow (count + 1) best (best :: accepted) rest
      in
      let first = walk [||] 0 src (d + 1) (step l memo) in
      List.rev_map Array.to_list (grow 1 first [ first ] [])

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
