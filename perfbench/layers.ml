(* The per-layer metrics of a traced run, grouped by module.  A workload
   fills the layers it exercises; a layer it bypasses reads 0.
   perfbench/NOTES.md maps each to the end-to-end metric it should
   move. *)

module Metrics = Pan_obs.Metrics
module Span = Pan_obs.Span

type t = {
  (* topology *)
  snapshot_load : float;
  freeze : float * int;  (** seconds, calls *)
  delta_edits : int;
  delta_batches : int;
  path_enum_calls : int;
  (* service *)
  stream_parse : float;
  engine_create : float;
  query_hit : float * int;
  query_miss : float * int;
  hit_ratio : float;
  apply : float * int;
  invalidated_per_event : float;
  invalidated_on_up : float;
  invalidated_on_down : float;
  prefill : float;
  answer : float;
  intent_hit : float * int;
  intent_miss : float * int;
  (* intent *)
  candidates : float * int;
  candidate_paths : int;
  mask : float;
  kshortest : float;
  metric_env : float;
  (* market *)
  enumerate : float * int;
  enumerated : int;
  kept : int;
  negotiate : float;
  qualify : float;
  splice : float;
  new_paths : float;
  residual : float;
  pairs : int;
  viable : int;
  signed : int;
  (* bosco, econ *)
  br_rounds : int;
  br_responses : int;
  cdf_cache_hits : int;
  cdf_cache_misses : int;
  econ_evals : int;
  econ_compiles : int;
  (* runner *)
  chunks : int;
  items : int;
  efficiency_enumerate : float;
  efficiency_negotiate : float;
  efficiency_prefill : float;
  retries : int;
  chunks_failed : int;
  job_failures : int;
  (* runtime, obs *)
  minor_mwords : float;
  major_collections : int;
  overhead : float;
}

(* Runs [f] with [Pan_obs] collecting on a real clock; returns its result
   with the metrics and spans it recorded. *)
let traced f =
  Pan_obs.Obs.configure ~clock:(Pan_obs.Clock.real ()) ();
  Fun.protect ~finally:Pan_obs.Obs.disable (fun () ->
      let r = f () in
      (r, Pan_obs.Obs.metrics (), Pan_obs.Obs.spans ()))

(* Alternates untraced and traced runs of [f] (which returns its result
   and wall time) three times each, after a full major GC, and passes
   every result to [check].  Returns the tracing overhead (median traced
   time over median untraced time, minus 1), then the wall time, metrics
   and spans of the last traced run. *)
let observe tally ~items ~check f =
  let plain = ref [] and obs = ref [] in
  let last = ref (Float.nan, Metrics.create (), []) in
  for _ = 1 to 3 do
    Gc.full_major ();
    (match Report.guarded tally ~items f with
    | Some (r, dt) ->
        plain := dt :: !plain;
        check "untraced" r
    | None -> ());
    Gc.full_major ();
    match Report.guarded tally ~items (fun () -> traced f) with
    | Some ((r, dt), metrics, spans) ->
        obs := dt :: !obs;
        last := (dt, metrics, spans);
        check "traced" r
    | None -> ()
  done;
  let wall, metrics, spans = !last in
  (Timer.median_of !obs /. Timer.median_of !plain -. 1.0, wall, metrics, spans)

let span_total spans name =
  List.fold_left
    (fun (s, n) (sp : Span.t) ->
      if String.equal sp.Span.name name then (s +. sp.Span.duration, n + 1)
      else (s, n))
    (0.0, 0) spans

(* Everything the libraries record themselves, read from one [Pan_obs]
   context; the bench-timed layers start at 0. *)
let of_obs metrics spans =
  let c = Metrics.counter metrics in
  let span = span_total spans in
  {
    snapshot_load = 0.0;
    freeze = span "topology.freeze";
    delta_edits = c "topology.delta.add" + c "topology.delta.remove";
    delta_batches = c "topology.delta.batch";
    path_enum_calls = c "path_enum.compact";
    stream_parse = 0.0;
    engine_create = 0.0;
    query_hit = (0.0, 0);
    query_miss = (0.0, 0);
    hit_ratio = 0.0;
    apply = (0.0, 0);
    invalidated_per_event = 0.0;
    invalidated_on_up = 0.0;
    invalidated_on_down = 0.0;
    prefill = 0.0;
    answer = 0.0;
    intent_hit = (0.0, 0);
    intent_miss = (0.0, 0);
    candidates = span "intent.candidates";
    candidate_paths = c "intent.candidates.paths";
    mask = 0.0;
    kshortest = 0.0;
    metric_env = 0.0;
    enumerate = span "market/enumerate";
    enumerated = c "market.candidates.enumerated";
    kept = c "market.candidates.kept";
    negotiate = fst (span "market/negotiate");
    qualify = 0.0;
    splice = 0.0;
    new_paths = 0.0;
    residual = 0.0;
    pairs = c "market.pairs";
    viable = c "market.viable";
    signed = c "market.signed";
    br_rounds = c "bosco.br.rounds";
    br_responses = Metrics.histogram_count metrics "bosco.br.response";
    cdf_cache_hits = c "bosco.br.cdf_cache_hits";
    cdf_cache_misses = c "bosco.br.cdf_cache_misses";
    econ_evals = c "econ.fast.evals";
    econ_compiles = c "econ.fast.compiles";
    chunks = c "runner.chunks";
    items = c "runner.items";
    efficiency_enumerate = 0.0;
    efficiency_negotiate = 0.0;
    efficiency_prefill = 0.0;
    retries = c "runner.retries";
    chunks_failed = c "runner.chunks_failed";
    job_failures = c "pool.job_failures";
    minor_mwords = 0.0;
    major_collections = 0;
    overhead = 0.0;
  }

let to_metrics l =
  let open Report in
  let s name v = m name "s" v in
  let ratio name v = m name "ratio" v in
  let timed name (t, n) = [ s (name ^ ".s") t; count (name ^ ".calls") n ] in
  let fl = float_of_int in
  List.concat
    [
      [ s "topology.snapshot_load.s" l.snapshot_load ];
      timed "topology.freeze" l.freeze;
      [
        count "topology.delta.edits" l.delta_edits;
        count "topology.delta.batches" l.delta_batches;
        count "topology.path_enum.calls" l.path_enum_calls;
        s "service.stream_parse.s" l.stream_parse;
        s "service.engine_create.s" l.engine_create;
      ];
      timed "service.query_hit" l.query_hit;
      timed "service.query_miss" l.query_miss;
      [ ratio "service.hit_ratio" l.hit_ratio ];
      timed "service.apply" l.apply;
      [
        m "service.invalidated_per_event" "count" l.invalidated_per_event;
        m "service.invalidated_on_up" "count" l.invalidated_on_up;
        m "service.invalidated_on_down" "count" l.invalidated_on_down;
        s "service.prefill.s" l.prefill;
        s "service.answer.s" l.answer;
      ];
      timed "service.intent_hit" l.intent_hit;
      timed "service.intent_miss" l.intent_miss;
      timed "intent.candidates" l.candidates;
      [
        count "intent.candidates.paths" l.candidate_paths;
        s "intent.mask.s" l.mask;
        s "intent.kshortest.s" l.kshortest;
        s "intent.score.s"
          (if snd l.candidates = 0 then 0.0
           else fst l.candidates -. l.mask -. l.kshortest);
        s "intent.metric_env.s" l.metric_env;
      ];
      timed "market.enumerate" l.enumerate;
      [
        count "market.candidates.enumerated" l.enumerated;
        count "market.candidates.kept" l.kept;
        ratio "market.candidates.kept_ratio"
          (Timer.ratio (fl l.kept) (fl l.enumerated));
        s "market.negotiate.s" l.negotiate;
        s "market.qualify.s" l.qualify;
        s "market.splice.s" l.splice;
        s "market.new_paths.s" l.new_paths;
        s "market.residual.s" l.residual;
        count "market.pairs" l.pairs;
        count "market.viable" l.viable;
        count "market.signed" l.signed;
        count "bosco.br.rounds" l.br_rounds;
        count "bosco.br.responses" l.br_responses;
        ratio "bosco.cdf_cache_hit_ratio"
          (Timer.ratio (fl l.cdf_cache_hits)
             (fl (l.cdf_cache_hits + l.cdf_cache_misses)));
        count "econ.fast.evals" l.econ_evals;
        count "econ.fast.compiles" l.econ_compiles;
        count "runner.chunks" l.chunks;
        count "runner.items" l.items;
        m "runner.items_per_chunk" "count" (Timer.ratio (fl l.items) (fl l.chunks));
        ratio "runner.efficiency.enumerate" l.efficiency_enumerate;
        ratio "runner.efficiency.negotiate" l.efficiency_negotiate;
        ratio "runner.efficiency.prefill" l.efficiency_prefill;
        count "runner.retries" l.retries;
        count "runner.chunks_failed" l.chunks_failed;
        count "pool.job_failures" l.job_failures;
        m "gc.minor_mwords" "Mwords" l.minor_mwords;
        count "gc.major_collections" l.major_collections;
        ratio "obs.overhead_frac" l.overhead;
      ];
    ]
