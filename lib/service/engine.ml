open Pan_topology
module Obs = Pan_obs.Obs
module Intent = Pan_intent.Intent
module Metric = Pan_intent.Metric
module Candidates = Pan_intent.Candidates

type link = Compact.Delta.link =
  | Peer of int * int
  | Transit of { provider : int; customer : int }

type event = Compact.Delta.edit = Link_up of link | Link_down of link
type mode = Incremental | Refreeze

type stats = {
  queries : int;
  store_hits : int;
  store_misses : int;
  events : int;
  invalidated : int;
}

(* Store keys use the scenario constructors directly: Ma_top carries
   only an int, so structural hashing and equality are exact. *)
type store_key = int * int * Path_enum.scenario

(* Intent answers are memoized under the canonical spec text: two
   intents print identically iff they are equal values, so the string is
   an exact key with structural hashing. *)
type istore_key = int * int * string

(* The intent is kept beside its answer: its [k] and [max_hops] decide
   whether a link-up can change the answer ([survives_up]). *)
type ientry = { intent : Intent.t; results : Candidates.result list }

type t = {
  mode : mode;
  mutable topo : Compact.t;
  store : (store_key, int list) Hashtbl.t;
  store_keys : (int * Path_enum.scenario) list array;
      (** per source index: the [(dst, policy)] keys it holds in [store] *)
  istore : (istore_key, ientry) Hashtbl.t;
  ilinks : (int * int, istore_key list ref) Hashtbl.t;
      (** normalized (lo, hi) dense link -> intent entries whose cached
          candidate paths traverse it *)
  ictx : Metric.ctx Lazy.t;
      (** metric environment pinned to the creation-time topology *)
  mutable queries : int;
  mutable store_hits : int;
  mutable store_misses : int;
  mutable events : int;
  mutable invalidated : int;
}

let topology t = t.topo

let stats t =
  {
    queries = t.queries;
    store_hits = t.store_hits;
    store_misses = t.store_misses;
    events = t.events;
    invalidated = t.invalidated;
  }

(* Metric environment for intent scoring, pinned to the creation-time
   frozen view: a deterministic synthetic geo embedding (seed 43) and
   degree-gravity capacities from creation-time degrees.  Pinning makes
   scores a static endowment — a link flipping elsewhere does not change
   another link's capacity — so churn invalidates cached intent answers
   only through the path {e set}, never through re-scoring (DESIGN
   §6g).  Links added by churn (absent from the embedding) fall back to
   the endpoint-midpoint interconnection location and the same
   degree-gravity product. *)
let intent_ctx topo =
  lazy
    (let geo = Geo.of_compact ~seed:43 topo in
     let as_location = Geo.as_location geo in
     let link_location a b =
       try Geo.link_location geo a b
       with Not_found ->
         let p = as_location a and q = as_location b in
         {
           Geo.lat = (p.Geo.lat +. q.Geo.lat) /. 2.0;
           lon = (p.Geo.lon +. q.Geo.lon) /. 2.0;
         }
     in
     let link_capacity a b =
       let i = Compact.index_of_exn topo a
       and j = Compact.index_of_exn topo b in
       float_of_int (Compact.degree topo i)
       *. float_of_int (Compact.degree topo j)
     in
     { Metric.as_location; link_location; link_capacity })

let create ?(mode = Incremental) topo =
  {
    mode;
    topo;
    store = Hashtbl.create 1024;
    store_keys = Array.make (Compact.num_ases topo) [];
    istore = Hashtbl.create 256;
    ilinks = Hashtbl.create 256;
    ictx = intent_ctx topo;
    queries = 0;
    store_hits = 0;
    store_misses = 0;
    events = 0;
    invalidated = 0;
  }

let err fmt = Printf.ksprintf invalid_arg ("Engine." ^^ fmt)

let check_index name t i =
  if i < 0 || i >= Compact.num_ases t.topo then
    err "%s: index %d outside [0, %d)" name i (Compact.num_ases t.topo)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let query_uncached t ~src ~dst ~policy =
  check_index "query_uncached" t src;
  check_index "query_uncached" t dst;
  Path_enum_compact.pair_paths t.topo policy ~src ~dst

let query t ~src ~dst ~policy =
  check_index "query" t src;
  check_index "query" t dst;
  t.queries <- t.queries + 1;
  Obs.incr "serve.queries";
  Obs.time "serve.query" (fun () ->
      match Hashtbl.find_opt t.store (src, dst, policy) with
      | Some a ->
          t.store_hits <- t.store_hits + 1;
          Obs.incr "serve.store_hits";
          a
      | None ->
          t.store_misses <- t.store_misses + 1;
          Obs.incr "serve.store_misses";
          let a = Path_enum_compact.pair_paths t.topo policy ~src ~dst in
          Hashtbl.replace t.store (src, dst, policy) a;
          t.store_keys.(src) <- (dst, policy) :: t.store_keys.(src);
          a)

(* The normalized (lo, hi) dense links an intent answer's candidate
   paths traverse, each once: the entry's key sits in exactly these
   [ilinks] lists while it is cached. *)
let intent_links topo results =
  let rec links = function
    | a :: (b :: _ as rest) ->
        let i = Compact.index_of_exn topo a
        and j = Compact.index_of_exn topo b in
        (if i < j then (i, j) else (j, i)) :: links rest
    | [ _ ] | [] -> []
  in
  List.sort_uniq compare
    (List.concat_map (fun (r : Candidates.result) -> links r.path) results)

let intent_query t ~src ~dst intent =
  check_index "intent_query" t src;
  check_index "intent_query" t dst;
  if src = dst then err "intent_query: src = dst (index %d)" src;
  t.queries <- t.queries + 1;
  Obs.incr "serve.queries";
  Obs.time "serve.query" (fun () ->
      let key = (src, dst, Intent.to_string intent) in
      match Hashtbl.find_opt t.istore key with
      | Some e ->
          t.store_hits <- t.store_hits + 1;
          Obs.incr "serve.store_hits";
          e.results
      | None ->
          t.store_misses <- t.store_misses + 1;
          Obs.incr "serve.store_misses";
          let metric = Lazy.force t.ictx in
          let results =
            Candidates.generate ~topo:t.topo ~metric intent
              ~src:(Compact.id t.topo src) ~dst:(Compact.id t.topo dst)
          in
          Hashtbl.replace t.istore key { intent; results };
          List.iter
            (fun lk ->
              match Hashtbl.find_opt t.ilinks lk with
              | Some l -> l := key :: !l
              | None -> Hashtbl.add t.ilinks lk (ref [ key ]))
            (intent_links t.topo results);
          results)

let intent_query_uncached t ~src ~dst intent =
  check_index "intent_query_uncached" t src;
  check_index "intent_query_uncached" t dst;
  if src = dst then err "intent_query_uncached: src = dst (index %d)" src;
  Candidates.generate ~topo:t.topo ~metric:(Lazy.force t.ictx) intent
    ~src:(Compact.id t.topo src) ~dst:(Compact.id t.topo dst)

let prefill ?pool:_ _ _ = ()

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)

(* Sources whose answers can differ after flipping link (a, b): {a, b}
   and both endpoints' neighborhoods, taken on the topology before AND
   after the flip.  See DESIGN §6f for the sufficiency argument;
   [apply_batch] unions these sets over the batch. *)
let drop_memos t affected =
  let dropped = ref 0 in
  Bitset.iter
    (fun src ->
      match t.store_keys.(src) with
      | [] -> ()
      | keys ->
          List.iter
            (fun (dst, p) ->
              if Hashtbl.mem t.store (src, dst, p) then (
                Hashtbl.remove t.store (src, dst, p);
                incr dropped))
            keys;
          t.store_keys.(src) <- [])
    affected;
  !dropped

(* The re-freeze oracle's view after a batch: the thawed pre-batch
   core with the events applied in order, frozen from scratch.  No
   validation: the events must apply in sequence. *)
let refreeze topo evs =
  let g = Compact.thaw topo in
  let asn i = Compact.id topo i in
  List.iter
    (function
      | Link_up (Peer (i, j)) -> Graph.add_peering g (asn i) (asn j)
      | Link_down (Peer (i, j)) -> Graph.remove_peering g (asn i) (asn j)
      | Link_up (Transit { provider; customer }) ->
          Graph.add_provider_customer g ~provider:(asn provider)
            ~customer:(asn customer)
      | Link_down (Transit { provider; customer }) ->
          Graph.remove_provider_customer g ~provider:(asn provider)
            ~customer:(asn customer))
    evs;
  Compact.freeze g

(* Intent invalidation over the masked candidate store.  Scores never go
   stale (the metric environment is pinned to the creation-time
   topology), so an answer changes only if its top-K path set does.

   Link-down is surgical: removing a link only deletes paths, so a
   cached top-K none of whose paths traverse the link is still the
   top-K — only the entries indexed under the downed link are dropped.

   Link-up keeps every answer that no path through the new link (a, b)
   can enter.  Such a path runs src … a – b … dst or src … b – a … dst,
   and both halves are paths of the post-batch core, so it has at least
   min(d(src, a) + d(b, dst), d(src, b) + d(a, dst)) + 2 ASes, d the hop
   distance on that core.  An answer holding K candidates, the longest
   of h ASes, stands if the bound exceeds h — strictly, since a new path
   of exactly h ASes can still win on lex order.  An answer with fewer
   than K candidates holds every path its intent admits, so it stands
   only if the bound exceeds its max-hops, or if no path through the
   link joins src to dst. *)

(* Dropping an entry unlists its key from every link its paths traverse,
   so a later answer for the same key is never dropped for links only
   the earlier answer used. *)
let drop_intent t key =
  List.iter
    (fun lk ->
      let l = Hashtbl.find t.ilinks lk in
      match List.filter (fun k -> k <> key) !l with
      | [] -> Hashtbl.remove t.ilinks lk
      | rest -> l := rest)
    (intent_links t.topo (Hashtbl.find t.istore key).results);
  Hashtbl.remove t.istore key

let drop_link_intents t (a, b) =
  match Hashtbl.find_opt t.ilinks (if a < b then (a, b) else (b, a)) with
  | None -> 0
  | Some keys ->
      (* every listed key is cached *)
      let keys = !keys in
      List.iter (drop_intent t) keys;
      List.length keys

(* BFS hop distances from [a] over [topo]; -1 where unreachable. *)
let hop_distances topo a =
  let n = Compact.num_ases topo in
  let dist = Array.make n (-1) and queue = Array.make n a in
  let tail = ref 1 and next = ref 0 in
  let visit v =
    if dist.(v) < 0 then (
      dist.(v) <- !next;
      queue.(!tail) <- v;
      incr tail)
  in
  dist.(a) <- 0;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    next := dist.(u) + 1;
    Compact.iter_neighbors topo u visit
  done;
  dist

(* Whether the answer [e] for (src, dst) stands after a link (a, b) comes
   up, given the post-batch hop distances [da] from a and [db] from b. *)
let survives_up e ~src ~dst (da, db) =
  let via dx dy =
    if dx.(src) < 0 || dy.(dst) < 0 then max_int else dx.(src) + dy.(dst) + 2
  in
  let fewest = min (via da db) (via db da) in
  fewest = max_int
  ||
  if List.length e.results = e.intent.Intent.k then
    fewest
    > List.fold_left (fun h (r : Candidates.result) -> max h r.hops) 0 e.results
  else
    match e.intent.Intent.max_hops with Some h -> fewest > h | None -> false

let drop_intents_batch t evs =
  let ups, downs =
    List.partition (function Link_up _ -> true | Link_down _ -> false) evs
  in
  let dropped =
    List.fold_left
      (fun acc ev -> acc + drop_link_intents t (Compact.Delta.endpoints ev))
      0 downs
  in
  if ups = [] || Hashtbl.length t.istore = 0 then dropped
  else
    let dists =
      List.map
        (fun ev ->
          let a, b = Compact.Delta.endpoints ev in
          (hop_distances t.topo a, hop_distances t.topo b))
        ups
    in
    let stale =
      Hashtbl.fold
        (fun ((src, dst, _) as key) e acc ->
          if List.for_all (survives_up e ~src ~dst) dists then acc
          else key :: acc)
        t.istore []
    in
    List.iter (drop_intent t) stale;
    dropped + List.length stale

let apply_batch t evs =
  match evs with
  | [] -> 0
  | _ ->
      (* Delta validates the whole batch before anything is installed:
         on error the engine is unchanged. *)
      let before = t.topo in
      let after =
        match (Compact.Delta.apply_batch before evs, t.mode) with
        | Error reason, _ -> err "apply: %s" reason
        | Ok spliced, Incremental -> spliced
        | Ok _, Refreeze -> refreeze before evs
      in
      t.topo <- after;
      (* Union of per-event affected sources.  Every source whose
         neighborhood changes at any intermediate step of the sequential
         fold is an edit endpoint itself, so the union over events of
         {a, b} ∪ N_before(a, b) ∪ N_after(a, b) — neighborhoods on the
         batch-boundary topologies only — equals the union the
         event-at-a-time fold would drop. *)
      let n = Compact.num_ases after in
      let affected = Bitset.create ~width:n in
      List.iter
        (fun ev ->
          let a, b = Compact.Delta.endpoints ev in
          Bitset.add affected a;
          Bitset.add affected b;
          let absorb topo =
            Compact.iter_neighbors topo a (Bitset.unsafe_add affected);
            Compact.iter_neighbors topo b (Bitset.unsafe_add affected)
          in
          absorb before;
          absorb after)
        evs;
      let dropped = drop_memos t affected + drop_intents_batch t evs in
      let n_events = List.length evs in
      t.events <- t.events + n_events;
      t.invalidated <- t.invalidated + dropped;
      Obs.incr ~by:n_events "serve.events";
      Obs.incr ~by:dropped "serve.invalidations";
      dropped

let apply t ev = apply_batch t [ ev ]
