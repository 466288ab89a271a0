module Obs = Pan_obs.Obs

type mid_sets = { width : int; mids : int array; sets : Bitset.t array }

(* Invariant: [mids] strictly ascending, every set non-empty, every set of
   width [width]. *)

let of_sorted_rev ~width pairs =
  let arr = Array.of_list (List.rev pairs) in
  { width; mids = Array.map fst arr; sets = Array.map snd arr }

let of_assoc ~width pairs =
  let arr = Array.of_list pairs in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  { width; mids = Array.map fst arr; sets = Array.map snd arr }

let total_count m =
  let acc = ref 0 in
  Array.iter (fun s -> acc := !acc + Bitset.cardinal s) m.sets;
  !acc

let dest_set m =
  let d = Bitset.create ~width:m.width in
  Array.iter (fun s -> Bitset.union_into ~into:d s) m.sets;
  d

let iter_sets f m = Array.iteri (fun k mid -> f mid m.sets.(k)) m.mids

let find m mid =
  let lo = ref 0 and hi = ref (Array.length m.mids - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let k = (!lo + !hi) / 2 in
    if m.mids.(k) = mid then found := Some m.sets.(k)
    else if m.mids.(k) < mid then lo := k + 1
    else hi := k - 1
  done;
  !found

let union a b =
  if a.width <> b.width then invalid_arg "Path_enum_compact.union";
  let la = Array.length a.mids and lb = Array.length b.mids in
  let acc = ref [] and ia = ref 0 and ib = ref 0 in
  while !ia < la || !ib < lb do
    if !ib >= lb || (!ia < la && a.mids.(!ia) < b.mids.(!ib)) then begin
      acc := (a.mids.(!ia), a.sets.(!ia)) :: !acc;
      incr ia
    end
    else if !ia >= la || b.mids.(!ib) < a.mids.(!ia) then begin
      acc := (b.mids.(!ib), b.sets.(!ib)) :: !acc;
      incr ib
    end
    else begin
      acc := (a.mids.(!ia), Bitset.union a.sets.(!ia) b.sets.(!ib)) :: !acc;
      incr ia;
      incr ib
    end
  done;
  of_sorted_rev ~width:a.width !acc

let iter_paths f m =
  iter_sets (fun mid zs -> Bitset.iter (fun dst -> f ~mid ~dst) zs) m

(* ------------------------------------------------------------------ *)
(* Enumeration proper                                                  *)

let grc c x =
  let n = Compact.num_ases c in
  let acc = ref [] in
  let add_mid y zs = if not (Bitset.is_empty zs) then acc := (y, zs) :: !acc in
  (* Providers export everything they know: customers, peers, their own
     providers. *)
  Compact.iter_providers c x (fun y ->
      let zs = Bitset.create ~width:n in
      Compact.add_customers c y zs;
      Compact.add_peers c y zs;
      Compact.add_providers c y zs;
      Bitset.remove zs x;
      add_mid y zs);
  (* Peers and customers export customer routes only. *)
  let customer_routes y =
    if Compact.customers_count c y > 0 then begin
      let zs = Bitset.create ~width:n in
      Compact.add_customers c y zs;
      Bitset.remove zs x;
      add_mid y zs
    end
  in
  Compact.iter_peers c x customer_routes;
  Compact.iter_customers c x customer_routes;
  of_assoc ~width:n !acc

(* [custx] is the pre-built customers(x) bitset, shared across the peers
   of one source. *)
let ma_gain_pre c ~custx x y =
  let zs = Bitset.create ~width:(Compact.num_ases c) in
  Compact.add_providers c y zs;
  Compact.add_peers c y zs;
  Bitset.diff_into ~into:zs custx;
  Bitset.remove zs x;
  zs

let customers_bitset c x =
  let custx = Bitset.create ~width:(Compact.num_ases c) in
  Compact.add_customers c x custx;
  custx

let ma_gain c x y = ma_gain_pre c ~custx:(customers_bitset c x) x y

let ma_direct ?partners c x =
  let n = Compact.num_ases c in
  let custx = customers_bitset c x in
  let acc = ref [] in
  Compact.iter_peers c x (fun y ->
      let chosen =
        match partners with None -> true | Some p -> Bitset.mem p y
      in
      if chosen then begin
        let zs = ma_gain_pre c ~custx x y in
        if not (Bitset.is_empty zs) then acc := (y, zs) :: !acc
      end);
  of_assoc ~width:n !acc

let ma_indirect ?concluded c x =
  let n = Compact.num_ases c in
  (* z is excluded when z = x or z is a provider of x (then x is a
     customer of z). *)
  let excl = Bitset.create ~width:n in
  Compact.add_providers c x excl;
  Bitset.add excl x;
  let acc = ref [] in
  let from_mid y =
    match concluded with
    | None ->
        (* fast path: one row OR plus one word-wise subtraction *)
        if Compact.peers_count c y > 0 then begin
          let zs = Bitset.create ~width:n in
          Compact.add_peers c y zs;
          Bitset.diff_into ~into:zs excl;
          if not (Bitset.is_empty zs) then acc := (y, zs) :: !acc
        end
    | Some conc ->
        let zs = Bitset.create ~width:n in
        Compact.iter_peers c y (fun z ->
            if (not (Bitset.mem excl z)) && conc y z then
              Bitset.unsafe_add zs z);
        if not (Bitset.is_empty zs) then acc := (y, zs) :: !acc
  in
  (* mids = customers(x) ∪ peers(x); the two classes are disjoint, so the
     two row iterations visit each mid exactly once *)
  Compact.iter_customers c x from_mid;
  Compact.iter_peers c x from_mid;
  of_assoc ~width:n !acc

(* |ma_gain c side via| without the bitset: up(via) = providers(via) ∪
   peers(via) (two disjoint rows) minus [side] itself and minus the
   customers of [side] it holds, that intersection walked from the
   shorter of the two rows and binary-searched in the other. *)
let ma_gain_count c ~side ~via =
  let up = Compact.providers_count c via + Compact.peers_count c via in
  let self =
    if Compact.mem_provider c via side || Compact.mem_peer c via side then 1
    else 0
  in
  let shared = ref 0 in
  if Compact.customers_count c side < up then
    Compact.iter_customers c side (fun z ->
        if Compact.mem_provider c via z || Compact.mem_peer c via z then
          incr shared)
  else begin
    let count z = if Compact.mem_customer c side z then incr shared in
    Compact.iter_providers c via count;
    Compact.iter_peers c via count
  end;
  up - self - !shared

(* Best first: gain descending, then index ascending. *)
module Ranked = Set.Make (struct
  type t = int * int

  let compare (g1, y1) (g2, y2) =
    match Int.compare g2 g1 with 0 -> Int.compare y1 y2 | c -> c
end)

(* Exact top-n by bound-pruned scan, as in the market's candidate
   search.  A peer y of x holds x in its own peer row, so x gains at
   most up(y) − 1 destinations through y.  The row is walked in
   ascending index, the tie order, holding the best min(n, |peers(x)|)
   (gain, index) pairs so far.  Once that many are held, a later peer
   enters only with a gain strictly above the worst held one's, since an
   equal gain ranks behind on index; so a peer whose bound does not
   exceed that gain is skipped uncounted. *)
let top_partners c ~n x =
  if n < 0 then invalid_arg "Path_enum_compact.top_partners: n < 0";
  let k = min n (Compact.peers_count c x) in
  let held = ref Ranked.empty and size = ref 0 in
  (* the k-th held gain; none until k are held *)
  let kth = ref min_int in
  if k > 0 then
    Compact.iter_peers c x (fun y ->
        if !size < k then begin
          held := Ranked.add (ma_gain_count c ~side:x ~via:y, y) !held;
          incr size;
          if !size = k then kth := fst (Ranked.max_elt !held)
        end
        else if
          Compact.providers_count c y + Compact.peers_count c y - 1 > !kth
        then begin
          let g = ma_gain_count c ~side:x ~via:y in
          if g > !kth then begin
            let worst = Ranked.max_elt !held in
            held := Ranked.add (g, y) (Ranked.remove worst !held);
            kth := fst (Ranked.max_elt !held)
          end
        end);
  List.map snd (Ranked.elements !held)

let economic_paths ~concluded c x =
  let partners = Bitset.create ~width:(Compact.num_ases c) in
  Compact.iter_peers c x (fun y ->
      if concluded x y then Bitset.unsafe_add partners y);
  union
    (union (grc c x) (ma_direct ~partners c x))
    (ma_indirect ~concluded c x)

let scenario_paths c scenario x =
  Obs.incr "path_enum.compact";
  let base = grc c x in
  match (scenario : Path_enum.scenario) with
  | Grc -> base
  | Ma_all -> union (union base (ma_direct c x)) (ma_indirect c x)
  | Ma_direct_only -> union base (ma_direct c x)
  | Ma_top n ->
      let partners =
        Bitset.of_list ~width:(Compact.num_ases c) (top_partners c ~n x)
      in
      union base (ma_direct ~partners c x)

(* ------------------------------------------------------------------ *)
(* One pair                                                            *)

(* The rule, by y's class towards x and z's class towards y, is the
   interface's.  [direct] (the gain through x's own MA with peer y) and
   [indirect] (x as the subject of the MA between y and z) fold in the
   conditions on z alone.  The walk takes the rows of the endpoint with
   the smaller degree and binary-searches each neighbour in the other
   endpoint's rows. *)
let pair_paths c scenario ~src:x ~dst:z =
  Obs.incr "path_enum.pair";
  if x = z then []
  else begin
    let direct, indirect =
      match (scenario : Path_enum.scenario) with
      | Grc -> (false, false)
      | Ma_all -> (true, true)
      | Ma_direct_only | Ma_top _ -> (true, false)
    in
    let direct = direct && not (Compact.mem_customer c x z) in
    let indirect = indirect && not (Compact.mem_provider c x z) in
    (* An [Ma_top] source with more than N peers ranks them only when a
       mid through a peer could be granted, and only once. *)
    let partner =
      match scenario with
      | Ma_top n when n < Compact.peers_count c x ->
          let top = lazy (top_partners c ~n x) in
          fun y -> List.mem y (Lazy.force top)
      | _ -> fun _ -> true
    in
    (* y a peer of x, z a peer (or else a provider) of y *)
    let through_peer y ~z_peer =
      (indirect && z_peer) || (direct && partner y)
    in
    let kept = ref [] in
    let keep y = kept := y :: !kept in
    if Compact.degree c x <= Compact.degree c z then begin
      Compact.iter_providers c x (fun y ->
          if Compact.connected c z y then keep y);
      Compact.iter_peers c x (fun y ->
          if Compact.mem_provider c z y then keep y
          else if Compact.mem_peer c z y then begin
            if through_peer y ~z_peer:true then keep y
          end
          else if Compact.mem_customer c z y && through_peer y ~z_peer:false
          then keep y);
      Compact.iter_customers c x (fun y ->
          if Compact.mem_provider c z y || (indirect && Compact.mem_peer c z y)
          then keep y)
    end
    else begin
      (* z is a customer of its providers, a peer of its peers and a
         provider of its customers *)
      Compact.iter_providers c z (fun y ->
          if Compact.connected c x y then keep y);
      Compact.iter_peers c z (fun y ->
          if Compact.mem_provider c x y then keep y
          else if Compact.mem_peer c x y then begin
            if through_peer y ~z_peer:true then keep y
          end
          else if indirect && Compact.mem_customer c x y then keep y);
      Compact.iter_customers c z (fun y ->
          if Compact.mem_provider c x y then keep y
          else if Compact.mem_peer c x y && through_peer y ~z_peer:false then
            keep y)
    end;
    List.sort compare !kept
  end
