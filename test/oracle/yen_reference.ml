(* Yen K-shortest paths as first written: every spur runs a full
   reverse BFS from dst over fresh O(n) scratch, with the blocked links
   kept in a hash table.  [Pan_intent.Candidates.k_shortest] stops each
   spur search at the spur and reuses one scratch per call;
   test_intent.ml pins the two together on generated topologies of a
   few hundred ASes. *)

open Pan_topology

(* Paths are dense-index lists; order is (hops, then forward
   lexicographic on the index sequence), which makes the enumeration a
   pure function of the frozen view + restriction — no hashing, no
   iteration-order dependence.  The BFS subroutine computes
   distance-to-dst once per spur query and reconstructs the
   lexicographically smallest minimum-hop path by always stepping to the
   smallest-index neighbor one level closer to the destination. *)

let link_key n i j = if i < j then (i * n) + j else (j * n) + i

let shortest_path topo ~edge_ok ~blocked_nodes ~blocked_edges ~src ~dst =
  let n = Compact.num_ases topo in
  let allowed i j =
    edge_ok i j && not (Hashtbl.mem blocked_edges (link_key n i j))
  in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  if not (Bitset.mem blocked_nodes dst) then (
    dist.(dst) <- 0;
    Queue.add dst queue);
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Compact.iter_neighbors topo u (fun v ->
        if
          dist.(v) < 0
          && (not (Bitset.mem blocked_nodes v))
          && allowed u v
        then (
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue))
  done;
  if src <> dst && (dist.(src) < 0 || Bitset.mem blocked_nodes src) then None
  else if src = dst then
    if Bitset.mem blocked_nodes src then None else Some [ src ]
  else
    let rec walk cur acc =
      if cur = dst then List.rev (cur :: acc)
      else
        let best = ref (-1) in
        Compact.iter_neighbors topo cur (fun v ->
            if
              dist.(v) = dist.(cur) - 1
              && (not (Bitset.mem blocked_nodes v))
              && allowed cur v
              && (!best < 0 || v < !best)
            then best := v);
        (* dist was computed over exactly these edges, so a next hop
           always exists *)
        assert (!best >= 0);
        walk !best (cur :: acc)
    in
    Some (walk src [])

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

let k_shortest topo ?mask ?(edge_ok = fun _ _ -> true) ?max_hops ~src ~dst ~k
    () =
  if k < 1 then invalid_arg "Candidates.k_shortest: k must be >= 1";
  let n = Compact.num_ases topo in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Candidates.k_shortest: endpoint outside [0, num_ases)";
  let mask = match mask with Some m -> m | None -> Compact.Mask.all topo in
  let edge_ok i j = Compact.Mask.allows_link mask i j && edge_ok i j in
  let node_ok i = Compact.Mask.allows_as mask i in
  let within_hops p =
    match max_hops with None -> true | Some h -> List.length p <= h
  in
  if not (node_ok src && node_ok dst) then []
  else
    let no_nodes = Bitset.create ~width:n in
    let no_edges = Hashtbl.create 1 in
    match
      shortest_path topo ~edge_ok ~blocked_nodes:no_nodes
        ~blocked_edges:no_edges ~src ~dst
    with
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
            let spur = last_arr.(i) in
            let root = Array.sub last_arr 0 (i + 1) in
            let blocked_edges = Hashtbl.create 8 in
            List.iter
              (fun p ->
                let p_arr = Array.of_list p in
                if
                  Array.length p_arr > i + 1
                  && Array.sub p_arr 0 (i + 1) = root
                then
                  Hashtbl.replace blocked_edges
                    (link_key n p_arr.(i) p_arr.(i + 1))
                    ())
              !accepted;
            let blocked_nodes = Bitset.create ~width:n in
            Array.iteri
              (fun j v -> if j < i then Bitset.unsafe_add blocked_nodes v)
              root;
            (match
               shortest_path topo ~edge_ok ~blocked_nodes ~blocked_edges
                 ~src:spur ~dst
             with
            | None -> ()
            | Some spur_path ->
                let total = Array.to_list (Array.sub root 0 i) @ spur_path in
                if
                  within_hops total
                  && (not (List.mem total !accepted))
                  && not (List.exists (fun p -> p = total) !frontier)
                then frontier := insert_sorted total !frontier)
          done;
          match !frontier with
          | [] -> continue := false
          | best :: rest ->
              frontier := rest;
              accepted := !accepted @ [ best ]
        done;
        take_prefix k !accepted
