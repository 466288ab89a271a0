open Pan_numerics
module Obs = Pan_obs.Obs

let chunk_count ~n ~chunk = (n + chunk - 1) / chunk

let check name ~n ~chunk =
  if n < 0 then invalid_arg ("Task." ^ name ^ ": n < 0");
  if chunk < 1 then invalid_arg ("Task." ^ name ^ ": chunk < 1")

(* Every executed chunk attempt reports the same three metrics whatever
   the pool size, so totals are independent of it: runner.chunks (+1),
   runner.items (+length), and a runner.chunk duration histogram entry.
   All are no-ops unless Pan_obs.Obs is configured.  The chunk's items
   go into one array, evaluated in ascending index order. *)
let chunk_items ~n ~chunk c f =
  let lo = c * chunk in
  let len = min chunk (n - lo) in
  Obs.time "runner.chunk" (fun () ->
      Obs.incr "runner.chunks";
      Obs.incr ~by:len "runner.items";
      let out = Array.make len (f lo) in
      for k = 1 to len - 1 do
        out.(k) <- f (lo + k)
      done;
      out)

(* Chunk [c] always receives the [(c+1)]-th split of the master rng, and
   every attempt of it replays a pristine Rng.copy of that split, so a
   retried run is bit-identical to a fault-free one.  Folding each chunk's
   items in ascending order, chunk after chunk in ascending order
   (Supervise.run_chunks' contract), gives [combine] the item sequence
   0 .. n-1 on every pool size. *)
let run_map_reduce ~pool ~policy ~partial ~rng ~n ~chunk ~f ~combine ~init =
  let m = chunk_count ~n ~chunk in
  let rngs = Array.init m (fun _ -> Rng.split rng) in
  Supervise.run_chunks ?pool ~policy ~partial ~m
    (fun c -> chunk_items ~n ~chunk c (f (Rng.copy rngs.(c))))
    ~fold:(Array.fold_left combine) ~init

let map_reduce ?pool ?(retries = 0) ?deadline ~rng ~n ~chunk ~f ~combine ~init
    () =
  check "map_reduce" ~n ~chunk;
  let policy = Supervise.policy ~retries ?deadline () in
  fst
    (run_map_reduce ~pool ~policy ~partial:false ~rng ~n ~chunk ~f ~combine
       ~init)

let map_reduce_partial ?pool ~policy ~rng ~n ~chunk ~f ~combine ~init () =
  check "map_reduce_partial" ~n ~chunk;
  run_map_reduce ~pool ~policy ~partial:true ~rng ~n ~chunk ~f ~combine ~init

(* Completed chunks are copied into one output array as they are folded,
   so a sequential run holds at most one chunk buffer at a time. *)
let run_map ~pool ~policy ~partial ~chunk ~n ~f =
  let (out, filled), manifest =
    Supervise.run_chunks ?pool ~policy ~partial ~m:(chunk_count ~n ~chunk)
      (fun c -> chunk_items ~n ~chunk c f)
      ~fold:(fun (out, filled) items ->
        let out = if filled = 0 then Array.make n items.(0) else out in
        Array.blit items 0 out filled (Array.length items);
        (out, filled + Array.length items))
      ~init:([||], 0)
  in
  ((if filled = n then out else Array.sub out 0 filled), manifest)

let map ?pool ?(chunk = 16) ?(retries = 0) ?deadline ~n ~f () =
  check "map" ~n ~chunk;
  let policy = Supervise.policy ~retries ?deadline () in
  fst (run_map ~pool ~policy ~partial:false ~chunk ~n ~f)

let map_partial ?pool ?(chunk = 16) ~policy ~n ~f () =
  check "map_partial" ~n ~chunk;
  run_map ~pool ~policy ~partial:true ~chunk ~n ~f
