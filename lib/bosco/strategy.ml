open Pan_numerics

type t = { claims : Claim.t; thresholds : float array }

let claims t = t.claims
let thresholds t = t.thresholds

let of_thresholds claims thresholds =
  let w = Claim.cardinality claims in
  if Array.length thresholds <> w + 1 then
    invalid_arg "Strategy.of_thresholds: need W + 1 boundaries";
  if thresholds.(0) <> neg_infinity || thresholds.(w) <> infinity then
    invalid_arg "Strategy.of_thresholds: ends must be -inf / +inf";
  for i = 0 to w - 1 do
    if not (thresholds.(i) <= thresholds.(i + 1)) then
      invalid_arg "Strategy.of_thresholds: boundaries must be non-decreasing"
  done;
  { claims; thresholds = Array.copy thresholds }

let truthful_rounding claims =
  let values = Claim.values claims in
  let w = Array.length values in
  let thresholds =
    Array.init (w + 1) (fun i ->
        if i = 0 then neg_infinity else if i = w then infinity else values.(i))
  in
  { claims; thresholds }

let apply t u =
  let th = t.thresholds in
  let w = Array.length th - 1 in
  (* largest i with th.(i) <= u; th.(0) = -inf guarantees existence *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if th.(mid) <= u then go mid hi else go lo (mid - 1)
  in
  let i = Stdlib.min (go 0 (w - 1)) (w - 1) in
  (Claim.values t.claims).(i)

let cdf_at dist x =
  if x = neg_infinity then 0.0
  else if x = infinity then 1.0
  else Distribution.cdf dist x

(* Eq. 15 with one CDF evaluation per threshold point: [dst.(i)] first
   holds F(t_{i+1}), then a right-to-left pass turns it into
   max 0 (F(t_{i+1}) − F(t_i)).  The CDF is a pure function, so these are
   the floats of evaluating both ends of every interval, bit for bit. *)
let choice_probabilities_into dist t dst =
  let th = t.thresholds in
  let w = Array.length th - 1 in
  for i = 0 to w - 1 do
    dst.(i) <- cdf_at dist th.(i + 1)
  done;
  for i = w - 1 downto 1 do
    dst.(i) <- Float.max 0.0 (dst.(i) -. dst.(i - 1))
  done;
  dst.(0) <- Float.max 0.0 (dst.(0) -. cdf_at dist th.(0))

let choice_probabilities dist t =
  let dst = Array.make (Array.length t.thresholds - 1) 0.0 in
  choice_probabilities_into dist t dst;
  dst

(* Algorithm 1: the upper envelope of the claims' lines, in O(W).

   Eq. 16/17 for own claim v against the opponent's sorted claims v_y and
   choice probabilities p: the qualifying set {j : v_y(j) >= -v} is a
   suffix, so
     m(v) = Σ_suffix p_j            and
     q(v) = ½ (Σ_suffix p_j·v_y(j)  −  v·m(v))
   are suffix sums accumulated from the tail.  Own claims ascend, so
   their suffix boundaries descend: one walk down the opponent's claims
   finds them all.  Suffix sums — not differences of prefix sums: a tail
   of tiny probability mass would be cancelled away by [total − prefix]
   (absolute error of the total, catastrophic relative error of the
   tail), whereas a right-to-left accumulation of non-negative terms
   keeps every suffix to full relative precision, like per-claim sums
   over the same terms.  The opponent's cancel claim (-inf, index 0)
   never qualifies, so the sums start at index 1; p·(-inf) would poison
   them.  The upper envelope of the resulting lines is a single monotone
   pass: slopes are non-decreasing in the claim index, so a stack walk
   pops every line whose interval the next line empties — the
   convex-hull trick.  Among parallel lines only the first
   maximal-intercept one survives: equal slopes form a contiguous run
   (slopes are monotone), so this is a check against the stack top.

   Every buffer comes from the workspace and no float is boxed in the
   loops, so a call allocates the returned strategy and the opponent
   CDF's arguments and results.  Results agree with the O(W²) reference
   of the test oracle library to the reassociation error of the suffix
   sums (thresholds within ~1e-12; test/test_strategy_fast.ml pins this
   down). *)
let best_response ?workspace ~opponent_dist ~opponent own_claims =
  let ws =
    match workspace with Some ws -> ws | None -> Workspace.create ()
  in
  let vx = Claim.values own_claims in
  let w = Array.length vx in
  let vy = Claim.values opponent.claims in
  let ny = Array.length vy in
  let probs = Workspace.probs_scratch ws ny in
  choice_probabilities_into opponent_dist opponent probs;
  let suf_p, suf_pv = Workspace.suffix_scratch ws (ny + 1) in
  suf_p.(ny) <- 0.0;
  suf_pv.(ny) <- 0.0;
  for j = ny - 1 downto 1 do
    suf_p.(j) <- probs.(j) +. suf_p.(j + 1);
    suf_pv.(j) <- (probs.(j) *. vy.(j)) +. suf_pv.(j + 1)
  done;
  let slope, intercept = Workspace.line_scratch ws w in
  (* k: the first opponent index >= 1 with vy.(k) >= -v, else ny *)
  let k = ref ny in
  for i = 0 to w - 1 do
    let v = vx.(i) in
    if v = neg_infinity then begin
      slope.(i) <- 0.0;
      intercept.(i) <- 0.0
    end
    else begin
      let x = -.v in
      while !k > 1 && not (vy.(!k - 1) < x) do
        decr k
      done;
      let m = suf_p.(!k) in
      slope.(i) <- m;
      intercept.(i) <- 0.5 *. (suf_pv.(!k) -. (v *. m))
    end
  done;
  (* Monotone envelope: stack of (line, interval start). *)
  let stack_line, stack_from = Workspace.stack_scratch ws w in
  let top = ref (-1) in
  for i = 0 to w - 1 do
    let mi = slope.(i) and qi = intercept.(i) in
    let keep = ref true in
    if !top >= 0 && slope.(stack_line.(!top)) = mi then
      if intercept.(stack_line.(!top)) >= qi then keep := false
      else decr top;
    if !keep then begin
      while
        !top >= 0
        &&
        let t = stack_line.(!top) in
        (intercept.(t) -. qi) /. (mi -. slope.(t)) <= stack_from.(!top)
      do
        decr top
      done;
      let from =
        if !top < 0 then neg_infinity
        else
          let t = stack_line.(!top) in
          (intercept.(t) -. qi) /. (mi -. slope.(t))
      in
      incr top;
      stack_line.(!top) <- i;
      stack_from.(!top) <- from
    end
  done;
  (* Visited claims get their interval start, unvisited ones empty
     intervals (the paper's final fill loop). *)
  let th = Array.make (w + 1) Float.nan in
  th.(0) <- neg_infinity;
  th.(w) <- infinity;
  for s = 0 to !top do
    let idx = stack_line.(s) in
    if idx > 0 then th.(idx) <- stack_from.(s)
  done;
  for i = w - 1 downto 1 do
    if Float.is_nan th.(i) then th.(i) <- th.(i + 1)
  done;
  for i = 1 to w - 1 do
    if th.(i) < th.(i - 1) then th.(i) <- th.(i - 1)
  done;
  { claims = own_claims; thresholds = th }

let equal ?(tol = 1e-9) t1 t2 =
  Claim.equal ~tol t1.claims t2.claims
  &&
  let a = t1.thresholds and b = t2.thresholds in
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && (a.(!i) = b.(!i) || Float.abs (a.(!i) -. b.(!i)) <= tol) do
    incr i
  done;
  !i = n

let support_size ?workspace dist t =
  let ws =
    match workspace with Some ws -> ws | None -> Workspace.create ()
  in
  let w = Array.length t.thresholds - 1 in
  let probs = Workspace.probs_scratch ws w in
  choice_probabilities_into dist t probs;
  let n = ref 0 in
  for i = 0 to w - 1 do
    if probs.(i) > 0.0 then incr n
  done;
  !n

let pp fmt t =
  let values = Claim.values t.claims in
  let th = t.thresholds in
  Array.iteri
    (fun i v ->
      if th.(i + 1) > th.(i) then
        Format.fprintf fmt "[%g, %g) -> %g@ " th.(i) th.(i + 1) v)
    values
