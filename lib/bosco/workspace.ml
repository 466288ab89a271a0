open Pan_numerics
module Obs = Pan_obs.Obs

type entry = {
  dist : Distribution.t;
  mutable thresholds : float array;
  mutable probs : float array;
}

type t = {
  mutable entries : entry list;
  capacity : int;
  mutable pv : float array;
  mutable suf_p : float array;
  mutable suf_pv : float array;
  mutable slope : float array;
  mutable intercept : float array;
  mutable stack_line : int array;
  mutable stack_from : float array;
}

let default_capacity = 8

let create ?(cache_capacity = default_capacity) () =
  if cache_capacity < 1 then invalid_arg "Workspace.create: cache_capacity < 1";
  {
    entries = [];
    capacity = cache_capacity;
    pv = [||];
    suf_p = [||];
    suf_pv = [||];
    slope = [||];
    intercept = [||];
    stack_line = [||];
    stack_from = [||];
  }

let clear_cache ws = ws.entries <- []
let cache_size ws = List.length ws.entries
let cache_capacity ws = ws.capacity

let grown a n = if Array.length a >= n then a else Array.make (2 * n) 0.0
let grown_int a n = if Array.length a >= n then a else Array.make (2 * n) 0

let pv_scratch ws n =
  ws.pv <- grown ws.pv n;
  ws.pv

let suffix_scratch ws n =
  ws.suf_p <- grown ws.suf_p n;
  ws.suf_pv <- grown ws.suf_pv n;
  (ws.suf_p, ws.suf_pv)

let line_scratch ws n =
  ws.slope <- grown ws.slope n;
  ws.intercept <- grown ws.intercept n;
  (ws.slope, ws.intercept)

let stack_scratch ws n =
  ws.stack_line <- grown_int ws.stack_line n;
  ws.stack_from <- grown ws.stack_from n;
  (ws.stack_line, ws.stack_from)

let same_thresholds a b =
  a == b
  || Array.length a = Array.length b
     && (let ok = ref true in
         let n = Array.length a in
         let i = ref 0 in
         while !ok && !i < n do
           if not (a.(!i) = b.(!i)) then ok := false;
           incr i
         done;
         !ok)

(* [Strategy.choice_probabilities] evaluates the CDF independently at
   both ends of every interval; evaluating each threshold point once
   yields the exact same floats (the CDF is a pure function), so caching
   cannot perturb results. *)
let cdf_at dist x =
  if x = neg_infinity then 0.0
  else if x = infinity then 1.0
  else Distribution.cdf dist x

let compute_probs dist thresholds probs =
  let w = Array.length thresholds - 1 in
  let prev = ref (cdf_at dist thresholds.(0)) in
  for i = 0 to w - 1 do
    let next = cdf_at dist thresholds.(i + 1) in
    probs.(i) <- Float.max 0.0 (next -. !prev);
    prev := next
  done

(* LRU lookup: a hit promotes the entry to the list head, so the tail is
   always the least-recently-used entry and eviction on insert trims it
   first.  Promotion reorders scratch state only — the cached floats are
   bit-identical to recomputation, so neither ordering nor eviction can
   perturb results. *)
let find_and_promote ws dist thresholds =
  let rec go acc = function
    | [] -> None
    | e :: rest ->
        if e.dist == dist && same_thresholds e.thresholds thresholds then (
          ws.entries <- e :: List.rev_append acc rest;
          Some e)
        else go (e :: acc) rest
  in
  go [] ws.entries

let choice_probabilities ws dist thresholds =
  let w = Array.length thresholds - 1 in
  if w < 0 then invalid_arg "Workspace.choice_probabilities: no thresholds";
  match find_and_promote ws dist thresholds with
  | Some e ->
      Obs.incr "bosco.br.cdf_cache_hits";
      e.probs
  | None ->
      Obs.incr "bosco.br.cdf_cache_misses";
      let probs = Array.make w 0.0 in
      compute_probs dist thresholds probs;
      let e = { dist; thresholds; probs } in
      let kept = List.filteri (fun i _ -> i < ws.capacity - 1) ws.entries in
      ws.entries <- e :: kept;
      probs
