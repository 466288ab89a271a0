(* Measurement helpers the workloads share: wall-clock timing on
   CLOCK_MONOTONIC (bechamel's stub), per-layer accumulators, order
   statistics, repeated set-ups and the live heap. *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

(* Times [f] on a fresh 2-domain pool, spawned before and joined after
   the timed call: no idle domain lingers beside the 1-domain passes,
   where each minor collection would have to stop it too. *)
let time_on_pool f =
  Pan_runner.Pool.with_pool ~domains:2 (fun pool -> time (fun () -> f pool))

(* Total time and call count of one layer, summed over a run. *)
type acc = { mutable s : float; mutable calls : int }

let acc () = { s = 0.0; calls = 0 }

let add a dt =
  a.s <- a.s +. dt;
  a.calls <- a.calls + 1

let timed a f =
  let r, dt = time f in
  add a dt;
  r

(* Type-7 quantile, [q] in [0, 1]. *)
let quantile xs q = Pan_numerics.Stats.percentile xs (100.0 *. q)
let median xs = quantile xs 0.5
let median_of = function [] -> Float.nan | l -> median (Array.of_list l)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Host speed.  On a shared VM the CPU speed swings by up to 1.7x over
   periods of seconds to minutes, and every timing swings with it.  A
   fixed reference kernel, timed right before and right after a measured
   pass, gives the pass's speed factor: [reference_s] over the kernel's
   mean time.  Multiplying the pass's timings by it expresses them at the
   speed of a host on which the kernel takes [reference_s].  The kernel
   fills and probes a 40k-entry hash table of short lists, allocating as
   the path store and the engine do, then runs a dependent float loop
   as the negotiation does; that mix tracked the swings of both kinds of
   pass best. *)
let reference_s = 0.026

let kernel () =
  let n = 40_000 in
  let h = Hashtbl.create 16 in
  for k = 0 to n - 1 do
    Hashtbl.replace h (k * 7919) [ k; k + 1 ]
  done;
  let s = ref 0 and x = ref 1 in
  for _ = 1 to 3 * n do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    match Hashtbl.find_opt h (!x mod n * 7919) with
    | Some (a :: _) -> s := !s + a
    | _ -> ()
  done;
  let y = ref 1.0 in
  for i = 1 to 3_000_000 do
    y := (!y *. 1.0000001) +. (float_of_int (i land 7) *. 1e-9)
  done;
  ignore (Sys.opaque_identity (!s, !y))

(* A second kernel for the speed of a served answer, which the one above
   tracks too slowly: a typical serve query, a store hit plus rendering
   its answer line, takes about 1.5 us, and its median swung with the
   host by 1.5x between passes whose [kernel] times matched.  This one
   renders 4000 answer lines of the shape [Serve.render_query] renders,
   for synthetic AS numbers, with the standard library alone; it takes
   [render_reference_s] on a fast phase of the host.  Timed between
   segments of a client pass, it correlated with the segments' median
   latency at 0.84 where [kernel] did at 0.64.  Every serve latency
   sample, miss or hit, is scaled by it: over five seeds of serve-zipf
   the p50 then spread by 0.014 (IQR/median) instead of 0.21, and the
   p99 by 0.053 instead of 0.070. *)
let render_reference_s = 0.004

let render_kernel () =
  let x = ref 7 and n = ref 0 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x mod 100_000
  in
  let pp a = Printf.sprintf "AS%d" a in
  for _ = 1 to 4000 do
    let pair = Printf.sprintf "%s -> %s [%s]" (pp (next ())) (pp (next ())) "grc" in
    let mids = List.init (1 + (next () mod 6)) (fun _ -> next ()) in
    let line =
      Printf.sprintf "%s: %d path%s via %s" pair (List.length mids)
        (if List.length mids = 1 then "" else "s")
        (String.concat ", " (List.map pp mids))
    in
    n := !n + String.length line
  done;
  ignore (Sys.opaque_identity !n)

(* Runs [f]; returns its result and the speed factor of the host while
   it ran. *)
let at_reference_speed f =
  let r0 = snd (time kernel) in
  let r = f () in
  let r1 = snd (time kernel) in
  (r, 2.0 *. reference_s /. (r0 +. r1))

(* Runs the set-up [f], each time after a full major GC, at least five
   times and until [budget] seconds have passed; returns the last result
   and the median of any of its timings, each at reference speed.  Only
   the last result stays reachable, so that the live heap counts one
   set-up. *)
let set_up_many ~budget f =
  let last = ref None and times = ref [] and k = ref 0 in
  let t_end = Int64.add (now ()) (Int64.of_float (budget *. 1e9)) in
  while !k < 5 || now () < t_end do
    last := None;
    Gc.full_major ();
    let (r, t), speed = at_reference_speed f in
    last := Some r;
    times := (t, speed) :: !times;
    incr k
  done;
  ( Option.get !last,
    fun get -> median_of (List.map (fun (t, speed) -> get t *. speed) !times) )

(* Latency samples, kept off the OCaml heap so that the live heap counts
   only what the program keeps. *)
module Samples = struct
  type t = {
    mutable a : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
    mutable n : int;
  }

  let create () = { a = Bigarray.(Array1.create float64 c_layout 4096); n = 0 }
  let clear s = s.n <- 0
  let length s = s.n

  let push s x =
    if s.n = Bigarray.Array1.dim s.a then begin
      let b = Bigarray.(Array1.create float64 c_layout (2 * s.n)) in
      Bigarray.Array1.(blit s.a (sub b 0 s.n));
      s.a <- b
    end;
    s.a.{s.n} <- x;
    s.n <- s.n + 1

  (* The samples, each multiplied by [scale]. *)
  let to_array ?(scale = 1.0) s = Array.init s.n (fun i -> s.a.{i} *. scale)

  (* The samples at render-reference speed.  [marks] holds, from the
     latest back to the first, the sample count and the [render_kernel]
     time at each mark, the first at count 0 and the latest at
     [length s]; a sample between two marks is multiplied by
     [render_reference_s] over the mean of their kernel times. *)
  let to_array_by_marks s marks =
    let out = Array.make s.n 0.0 in
    let rec go = function
      | (hi, k1) :: ((lo, k0) :: _ as rest) ->
          let scale = 2.0 *. render_reference_s /. (k0 +. k1) in
          for i = lo to hi - 1 do
            out.(i) <- s.a.{i} *. scale
          done;
          go rest
      | [ _ ] | [] -> ()
    in
    go marks;
    out
end

(* Latency samples a measured run gathers at least, so that ten lie
   beyond the p99. *)
let min_samples = 1000

(* Live major heap in MB after a full collection: what the caller keeps
   resident at this point. *)
let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
