(* The serve-zipf and serve-intent workloads: the resident path/intent
   service draining a query stream under link churn. *)

open Pan_topology
module Engine = Pan_service.Engine
module Serve = Pan_service.Serve
module Stream = Pan_service.Stream
module Intent = Pan_intent.Intent
module Candidates = Pan_intent.Candidates
module Pool = Pan_runner.Pool

type inputs = {
  topo : Compact.t;
  stream : Stream.t;
  intent : Intent.t option;  (** the stream's intent, if it has one *)
  items : int;
  queries : int;
}

(* One set-up: load the snapshot, parse the stream, create the engine and
   force its lazy intent metric environment, so that the first timed
   query does not pay for it. *)
type setup = { load : float; parse : float; create : float; env : float }

let total s = s.load +. s.parse +. s.create +. s.env

let force_env engine = function
  | None -> ()
  | Some i -> ignore (Engine.intent_query_uncached engine ~src:0 ~dst:1 i)

let set_up dir =
  let topo, load =
    Timer.time (fun () -> Compact.Snapshot.load (Inputs.topo_file dir))
  in
  let stream, parse =
    Timer.time (fun () -> Stream.load (Inputs.stream_file dir))
  in
  let intent =
    List.find_map
      (function Stream.Intent_query { intent; _ } -> Some intent | _ -> None)
      stream
  in
  let engine, create = Timer.time (fun () -> Engine.create topo) in
  let (), env = Timer.time (fun () -> force_env engine intent) in
  let queries =
    List.length
      (List.filter
         (function Stream.Query _ | Stream.Intent_query _ -> true | _ -> false)
         stream)
  in
  ( { topo; stream; intent; items = List.length stream; queries },
    { load; parse; create; env } )

let fresh_engine inp =
  let e = Engine.create inp.topo in
  force_env e inp.intent;
  e

(* [Serve]'s private event renderer, so that a client-side drive renders
   the very transcript [Serve.run] does. *)
let render_event topo ev dropped =
  let pp i = Printf.sprintf "AS%d" (Asn.to_int (Compact.id topo i)) in
  let verb, link =
    match ev with Engine.Link_up l -> ("up", l) | Engine.Link_down l -> ("down", l)
  in
  let link =
    match link with
    | Engine.Peer (i, j) -> Printf.sprintf "peer %s -- %s" (pp i) (pp j)
    | Engine.Transit { provider; customer } ->
        Printf.sprintf "transit %s -> %s" (pp provider) (pp customer)
  in
  Printf.sprintf "link %s %s: invalidated %d store entr%s" verb link dropped
    (if dropped = 1 then "y" else "ies")

(* Per-layer time and counts from client-side drives. *)
type layers = {
  hit : Timer.acc;
  miss : Timer.acc;
  ihit : Timer.acc;
  imiss : Timer.acc;
  apply : Timer.acc;
  prefill : Timer.acc;
  mask : Timer.acc;
  kshortest : Timer.acc;
  mutable up_events : int;
  mutable up_dropped : int;
  mutable down_events : int;
  mutable down_dropped : int;
  mutable mismatches : int;
}

let layers () =
  {
    hit = Timer.acc ();
    miss = Timer.acc ();
    ihit = Timer.acc ();
    imiss = Timer.acc ();
    apply = Timer.acc ();
    prefill = Timer.acc ();
    mask = Timer.acc ();
    kshortest = Timer.acc ();
    up_events = 0;
    up_dropped = 0;
    down_events = 0;
    down_dropped = 0;
    mismatches = 0;
  }

(* Re-derive an intent miss through the public candidate layers, timing
   the mask build and the K-shortest search on their own; the engine's
   ranked answer must hold exactly the paths the search returns. *)
let split_intent ly topo intent ~src ~dst results =
  let mask = Timer.timed ly.mask (fun () -> Candidates.mask_of_intent topo intent) in
  let paths =
    Timer.timed ly.kshortest (fun () ->
        Candidates.k_shortest topo ~mask ?max_hops:intent.Intent.max_hops ~src
          ~dst ~k:intent.Intent.k ())
  in
  let raw = List.sort compare (List.map (List.map (Compact.id topo)) paths) in
  let served =
    List.sort compare (List.map (fun r -> r.Candidates.path) results)
  in
  if raw <> served then ly.mismatches <- ly.mismatches + 1

(* One client drives the stream item by item through [Engine.query],
   [intent_query] and [apply], timing every query into [lat] and
   rendering the transcript [Serve.run] renders; returns its fingerprint.
   With [heap], it adds the live heap to it after every eighth of the
   stream, and with [mark] it calls [mark] after every 64th, outside any
   timed call.
   With [segmented], each run of queries is first prefilled through
   [pool] as [Serve.run] does, and intent misses are re-derived layer by
   layer. *)
let drive ?pool ?heap ?mark ~segmented engine inp ly lat =
  let buf = Buffer.create (1 lsl 16) in
  let done_items = ref 0 in
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  (* A query's latency is its engine call plus rendering its answer
     line, as [Serve.run] answers an item; the layer accumulators get
     the engine call alone. *)
  let timed_query hit miss f render =
    let hits = (Engine.stats engine).Engine.store_hits in
    let r, dt = Timer.time f in
    let was_hit = (Engine.stats engine).Engine.store_hits > hits in
    Timer.add (if was_hit then hit else miss) dt;
    let s, dr = Timer.time (fun () -> render r) in
    Timer.Samples.push lat (dt +. dr);
    line s;
    (r, was_hit)
  in
  let answer item =
    let t = Engine.topology engine in
    match item with
    | Stream.Query { src; dst; policy } ->
        let src = Compact.index_of_exn t src
        and dst = Compact.index_of_exn t dst in
        ignore
          (timed_query ly.hit ly.miss
             (fun () -> Engine.query engine ~src ~dst ~policy)
             (Serve.render_query t ~src ~dst ~policy))
    | Stream.Intent_query { src; dst; intent } ->
        let src = Compact.index_of_exn t src
        and dst = Compact.index_of_exn t dst in
        let rs, was_hit =
          timed_query ly.ihit ly.imiss
            (fun () -> Engine.intent_query engine ~src ~dst intent)
            (Serve.render_intent_query t ~src ~dst intent)
        in
        if segmented && not was_hit then split_intent ly t intent ~src ~dst rs
    | Stream.Up _ | Stream.Down _ ->
        let ev = Serve.event_of_item t item in
        let dropped = Timer.timed ly.apply (fun () -> Engine.apply engine ev) in
        (match ev with
        | Engine.Link_up _ ->
            ly.up_events <- ly.up_events + 1;
            ly.up_dropped <- ly.up_dropped + dropped
        | Engine.Link_down _ ->
            ly.down_events <- ly.down_events + 1;
            ly.down_dropped <- ly.down_dropped + dropped);
        line (render_event t ev dropped)
  in
  let answer item =
    answer item;
    incr done_items;
    (match mark with
    | Some f when !done_items mod (inp.items / 64) = 0 -> f ()
    | _ -> ());
    match heap with
    | Some h when !done_items mod (inp.items / 8) = 0 ->
        h := Timer.live_mb () :: !h
    | _ -> ()
  in
  let is_query = function
    | Stream.Query _ | Stream.Intent_query _ -> true
    | Stream.Up _ | Stream.Down _ -> false
  in
  let rec split acc = function
    | q :: rest when is_query q -> split (q :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> ()
    | q :: _ as items when segmented && is_query q ->
        let run, rest = split [] items in
        let t = Engine.topology engine in
        let keys =
          List.filter_map
            (function
              | Stream.Query q -> Some (Compact.index_of_exn t q.src, q.policy)
              | _ -> None)
            run
        in
        Timer.timed ly.prefill (fun () -> Engine.prefill ?pool engine keys);
        List.iter answer run;
        go rest
    | item :: rest ->
        answer item;
        go rest
  in
  go inp.stream;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let drain ?pool inp =
  Serve.run ?pool ~mode:Engine.Incremental ~topo:inp.topo inp.stream

(* The 1-domain [Serve.run] transcript every other pass must reproduce. *)
let reference tally inp =
  match Report.guarded tally ~items:inp.items (fun () -> drain inp) with
  | Some o -> o.Serve.fingerprint
  | None -> ""

(* Untraced: one 2-domain drain (fingerprint check), then alternate
   1-domain [Serve.run] drains (throughput) and closed-loop client
   drives (latency) until [seconds] have passed and at least ten latency
   samples lie beyond the p99.  Every drain is timed at reference speed
   ([Timer.at_reference_speed]).  Every latency sample is taken at
   render-reference speed instead: a drive times [Timer.render_kernel]
   before it, after every 64th of the stream and after it. *)
let measure ~dir ~seconds =
  let inp, med = Timer.set_up_many ~budget:1.5 (fun () -> set_up dir) in
  let tally = Report.tally () in
  let expected = reference tally inp in
  let rates = ref [] and p50s = ref [] and heaps = ref [] and speeds = ref [] in
  let pass = Timer.Samples.create () and pooled = Timer.Samples.create () in
  (match
     Report.guarded tally ~items:inp.items (fun () ->
         Timer.time_on_pool (fun pool -> drain ~pool inp))
   with
  | Some (o, _) ->
      Report.check_fp tally ~what:"2-domain drain" expected o.Serve.fingerprint
  | None -> ());
  let t_end = Int64.add (Timer.now ()) (Int64.of_float (seconds *. 1e9)) in
  let k = ref 0 in
  while
    !k < 2 || Timer.now () < t_end
    || Timer.Samples.length pooled < Timer.min_samples
  do
    Gc.full_major ();
    (if !k mod 2 = 0 then
       match
         Report.guarded tally ~items:inp.items (fun () ->
             Timer.at_reference_speed (fun () -> Timer.time (fun () -> drain inp)))
       with
       | Some ((o, dt), speed) ->
           rates := (float_of_int inp.items /. (dt *. speed)) :: !rates;
           speeds := speed :: !speeds;
           Report.check_fp tally ~what:"drain rerun" expected o.Serve.fingerprint
       | None -> ()
     else
       let e = fresh_engine inp in
       Timer.Samples.clear pass;
       let marks = ref [] in
       let mark () =
         let k = snd (Timer.time Timer.render_kernel) in
         marks := (Timer.Samples.length pass, k) :: !marks
       in
       match
         Report.guarded tally ~items:inp.items (fun () ->
             mark ();
             let fp = drive ~heap:heaps ~mark ~segmented:false e inp (layers ()) pass in
             mark ();
             fp)
       with
       | Some fp ->
           let lat = Timer.Samples.to_array_by_marks pass !marks in
           p50s := Timer.median lat :: !p50s;
           Array.iter (Timer.Samples.push pooled) lat;
           Report.check_fp tally ~what:"closed-loop drive" expected fp
       | None -> ());
    incr k
  done;
  let lat = Timer.Samples.to_array pooled in
  let us q = if lat = [||] then Float.nan else Timer.quantile lat q *. 1e6 in
  ( tally,
    [
      Report.m "setup_s" "s" (med total);
      Report.m "ops_per_s" "1/s" (Timer.median_of !rates);
      Report.m "op_p50_us" "us" (Timer.median_of !p50s *. 1e6);
      Report.m "op_p99_us" "us" (us 0.99);
      Report.m "heap_live_mb" "MB" (Timer.median_of !heaps);
    ],
    [
      Report.m "info.op_p90_us" "us" (us 0.9);
      Report.m "info.host_speed" "ratio" (Timer.median_of !speeds);
      Report.count "info.drains" (List.length !rates);
      Report.count "info.latency_samples" (Array.length lat);
      Report.count "info.stream_items" inp.items;
      Report.count "info.stream_queries" inp.queries;
    ] )

(* Traced: alternate untraced and traced 2-domain drains (the [Pan_obs]
   overhead, fingerprint equality and the library counters), then
   segmented client drives at 2 and 1 domains for the per-layer split. *)
let trace ~dir =
  let inp, med = Timer.set_up_many ~budget:1.5 (fun () -> set_up dir) in
  let tally = Report.tally () in
  let expected = reference tally inp in
  let overhead, _, metrics, spans =
    Layers.observe tally ~items:inp.items
      ~check:(fun what o ->
        Report.check_fp tally ~what:(what ^ " drain") expected o.Serve.fingerprint)
      (fun () -> Timer.time_on_pool (fun pool -> drain ~pool inp))
  in
  let redrive ?pool () =
    let ly = layers () in
    let lat = Timer.Samples.create () in
    let e = fresh_engine inp in
    Gc.full_major ();
    let gc0 = Gc.quick_stat () in
    let r =
      Report.guarded tally ~items:inp.items (fun () ->
          Layers.traced (fun () -> drive ?pool ~segmented:true e inp ly lat))
    in
    let gc1 = Gc.quick_stat () in
    Report.check tally ~what:"intent answers vs. K-shortest" (ly.mismatches = 0);
    match r with
    | Some (fp, _, spans) ->
        Report.check_fp tally ~what:"traced re-drive" expected fp;
        (ly, spans, gc1.Gc.minor_words -. gc0.Gc.minor_words,
         gc1.Gc.major_collections - gc0.Gc.major_collections)
    | None -> (ly, [], 0.0, 0)
  in
  let ly, rspans, minor, major =
    Pool.with_pool ~domains:2 (fun pool -> redrive ~pool ())
  in
  let ly1, _, _, _ = redrive () in
  let events = ly.up_events + ly.down_events in
  let hits = ly.hit.calls + ly.ihit.calls in
  let lookups = hits + ly.miss.calls + ly.imiss.calls in
  let fl = float_of_int in
  let pair (a : Timer.acc) = (a.s, a.calls) in
  let base = Layers.of_obs metrics spans in
  let l =
    {
      base with
      Layers.snapshot_load = med (fun s -> s.load);
      stream_parse = med (fun s -> s.parse);
      engine_create = med (fun s -> s.create);
      metric_env = med (fun s -> s.env);
      query_hit = pair ly.hit;
      query_miss = pair ly.miss;
      intent_hit = pair ly.ihit;
      intent_miss = pair ly.imiss;
      hit_ratio = Timer.ratio (fl hits) (fl lookups);
      apply = pair ly.apply;
      invalidated_per_event =
        Timer.ratio (fl (ly.up_dropped + ly.down_dropped)) (fl events);
      invalidated_on_up = Timer.ratio (fl ly.up_dropped) (fl ly.up_events);
      invalidated_on_down =
        Timer.ratio (fl ly.down_dropped) (fl ly.down_events);
      prefill = ly.prefill.s;
      answer = ly.hit.s +. ly.miss.s +. ly.ihit.s +. ly.imiss.s;
      candidates = Layers.span_total rspans "intent.candidates";
      mask = ly.mask.s;
      kshortest = ly.kshortest.s;
      efficiency_prefill =
        (if base.path_enum_calls = 0 then 0.0
         else Timer.ratio ly1.prefill.s (2.0 *. ly.prefill.s));
      minor_mwords = minor /. 1e6;
      major_collections = major;
      overhead;
    }
  in
  (tally, Layers.to_metrics l, [ Report.count "info.intent_misses" ly.imiss.calls ])
