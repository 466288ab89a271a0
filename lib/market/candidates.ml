open Pan_topology
module Obs = Pan_obs.Obs

type t = { x : int; y : int; gain_x : int; gain_y : int }

let gains topo x y =
  ( Path_enum_compact.ma_gain_count topo ~side:x ~via:y,
    Path_enum_compact.ma_gain_count topo ~side:y ~via:x )

(* Total gain descending, then (x, y) ascending: a total order, so the
   top-K under it is unique.  The ranking sum saturates: adversarial gain
   counts near [max_int] would wrap the unboxed addition, flip the
   comparison sign, and break transitivity.  Saturated ties fall back to
   the pair order, which keeps the order total. *)
let sat_add a b =
  let s = a + b in
  if a >= 0 && b >= 0 && s < 0 then max_int
  else if a < 0 && b < 0 && s >= 0 then min_int
  else s

let total_gain c = sat_add c.gain_x c.gain_y

let compare_candidates a b =
  match compare (total_gain b) (total_gain a) with
  | 0 -> compare (a.x, a.y) (b.x, b.y)
  | c -> c

(* Distinct candidates under [compare_candidates]: the best K so far,
   whose [max_elt] is the K-th, the one an offer has to beat. *)
module Top = Set.Make (struct
  type nonrec t = t

  let compare = compare_candidates
end)

(* Exact top-K by bound-pruned search.  Through y, side x gains at most
   up(y) = |providers(y)| + |peers(y)| destinations, so a pair's total
   is at most up(x) + up(y), and a pair with either up below [min_gain]
   never qualifies.  ASes are ranked by (up descending, index
   ascending); each pair is taken from its higher-ranked end a, and the
   other end b is read off the rank-sorted neighbour rows of a's
   neighbours, so along a row up(b) only falls.  A row stops at the
   first b whose bound is strictly below the current K-th total (equal
   bounds still compete on (x, y)), and the outer loop stops once
   2·up(a) is: every later pair is bounded by that.  The K-th total only
   rises, so nothing pruned could have entered the final top-K. *)
let enumerate ?(min_gain = 1) ?(max_candidates = 4096) topo =
  if min_gain < 1 then invalid_arg "Candidates.enumerate: min_gain < 1";
  if max_candidates < 0 then
    invalid_arg "Candidates.enumerate: max_candidates < 0";
  Obs.with_span "market/enumerate" @@ fun () ->
  let n = Compact.num_ases topo in
  let up v = Compact.providers_count topo v + Compact.peers_count topo v in
  let order = Array.init n Fun.id in
  Array.sort
    (fun u v -> match compare (up v) (up u) with 0 -> compare u v | c -> c)
    order;
  let up_r = Array.map up order in
  (* Per-AS neighbour rows holding ranks: filled in rank order, so each
     row is ascending without a sort. *)
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Compact.degree topo v
  done;
  let fill = Array.sub off 0 n in
  let rows = Array.make off.(n) 0 in
  Array.iteri
    (fun r v ->
      Compact.iter_neighbors topo v (fun m ->
          rows.(fill.(m)) <- r;
          fill.(m) <- fill.(m) + 1))
    order;
  let top = ref Top.empty and size = ref 0 in
  (* the K-th total; none while the budget has room *)
  let kth = ref min_int in
  let offer c =
    if !size < max_candidates then begin
      top := Top.add c !top;
      incr size
    end
    else if compare_candidates c (Top.max_elt !top) < 0 then
      top := Top.add c (Top.remove (Top.max_elt !top) !top);
    if !size = max_candidates then kth := total_gain (Top.max_elt !top)
  in
  let stamp = Array.make n (-1) in
  let evaluated = ref 0 in
  let consider ra a rb =
    if stamp.(rb) <> ra then begin
      stamp.(rb) <- ra;
      let b = order.(rb) in
      if not (Compact.connected topo a b) then begin
        incr evaluated;
        let x = min a b and y = max a b in
        let gx = Path_enum_compact.ma_gain_count topo ~side:x ~via:y in
        if gx >= min_gain then begin
          let gy = Path_enum_compact.ma_gain_count topo ~side:y ~via:x in
          if gy >= min_gain then
            offer { x; y; gain_x = gx; gain_y = gy }
        end
      end
    end
  in
  let scan_row ra a ua m =
    (* first entry ranked after a *)
    let lo = ref off.(m) and hi = ref off.(m + 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if rows.(mid) <= ra then lo := mid + 1 else hi := mid
    done;
    let i = ref !lo and stop = off.(m + 1) in
    while !i < stop do
      let rb = rows.(!i) in
      let ub = up_r.(rb) in
      if ub < min_gain || ua + ub < !kth then i := stop
      else begin
        consider ra a rb;
        incr i
      end
    done
  in
  if max_candidates > 0 then begin
    let ra = ref 0 in
    while
      !ra < n
      && up_r.(!ra) >= min_gain
      && 2 * up_r.(!ra) >= !kth
    do
      let a = order.(!ra) in
      Compact.iter_neighbors topo a (scan_row !ra a up_r.(!ra));
      incr ra
    done
  end;
  let kept = Array.of_list (Top.elements !top) in
  Obs.incr ~by:!evaluated "market.candidates.enumerated";
  Obs.incr ~by:(Array.length kept) "market.candidates.kept";
  kept
