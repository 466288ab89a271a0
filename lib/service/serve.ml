open Pan_topology
module Obs = Pan_obs.Obs

type outcome = {
  transcript : string;
  stats : Engine.stats;
  fingerprint : string;
}

let pp_as topo i = Printf.sprintf "AS%d" (Asn.to_int (Compact.id topo i))

let render_query topo ~src ~dst ~policy mids =
  let pair =
    Printf.sprintf "%s -> %s [%s]" (pp_as topo src) (pp_as topo dst)
      (Stream.policy_label policy)
  in
  match mids with
  | [] -> pair ^ ": no paths"
  | _ ->
      Printf.sprintf "%s: %d path%s via %s" pair (List.length mids)
        (if List.length mids = 1 then "" else "s")
        (String.concat ", " (List.map (pp_as topo) mids))

let render_intent_query topo ~src ~dst intent results =
  let pair =
    Printf.sprintf "%s -> %s [intent %s]" (pp_as topo src) (pp_as topo dst)
      (Pan_intent.Intent.to_string intent)
  in
  match results with
  | [] -> pair ^ ": no candidates"
  | _ ->
      let line (r : Pan_intent.Candidates.result) =
        Printf.sprintf "  %s (score %g, hops %d)"
          (String.concat " "
             (List.map (fun x -> Printf.sprintf "AS%d" (Asn.to_int x)) r.path))
          r.score r.hops
      in
      Printf.sprintf "%s: %d candidate%s\n%s" pair (List.length results)
        (if List.length results = 1 then "" else "s")
        (String.concat "\n" (List.map line results))

let render_event topo ev dropped =
  let verb, link =
    match ev with
    | Engine.Link_up l -> ("up", l)
    | Engine.Link_down l -> ("down", l)
  in
  let link_s =
    match link with
    | Engine.Peer (i, j) ->
        Printf.sprintf "peer %s -- %s" (pp_as topo i) (pp_as topo j)
    | Engine.Transit { provider; customer } ->
        Printf.sprintf "transit %s -> %s" (pp_as topo provider)
          (pp_as topo customer)
  in
  Printf.sprintf "link %s %s: invalidated %d store entr%s" verb link_s dropped
    (if dropped = 1 then "y" else "ies")

let index topo what x =
  match Compact.index_of topo x with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "%s AS%d is not in the topology" what (Asn.to_int x))

let event_of_item topo item =
  let link = function
    | Stream.Peer (a, b) ->
        Engine.Peer (index topo "endpoint" a, index topo "endpoint" b)
    | Stream.Transit { provider; customer } ->
        Engine.Transit
          {
            provider = index topo "provider" provider;
            customer = index topo "customer" customer;
          }
  in
  match item with
  | Stream.Up l -> Engine.Link_up (link l)
  | Stream.Down l -> Engine.Link_down (link l)
  | Stream.Query _ | Stream.Intent_query _ ->
      invalid_arg "Serve.event_of_item: a query is not a churn event"

let run ?pool:_ ?(oracle = false) ?(mode = Engine.Incremental) ~topo stream =
  let engine = Engine.create ~mode topo in
  let buf = Buffer.create 4096 in
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  (* Under the oracle every served answer is re-derived bypassing the
     store, so a stale entry left by an invalidation rule fails here. *)
  let check served fresh =
    if served <> fresh then
      failwith
        "oracle divergence — stored answer differs from its uncached \
         recomputation"
  in
  let serve item =
    let t = Engine.topology engine in
    match item with
    | Stream.Query { src; dst; policy } ->
        let src = index t "source" src in
        let dst = index t "destination" dst in
        let mids = Engine.query engine ~src ~dst ~policy in
        if oracle then
          check mids (Engine.query_uncached engine ~src ~dst ~policy);
        line (render_query t ~src ~dst ~policy mids)
    | Stream.Intent_query { src; dst; intent } ->
        let src = index t "source" src in
        let dst = index t "destination" dst in
        let results = Engine.intent_query engine ~src ~dst intent in
        if oracle then
          check results (Engine.intent_query_uncached engine ~src ~dst intent);
        line (render_intent_query t ~src ~dst intent results)
    | Stream.Up _ | Stream.Down _ ->
        let ev = event_of_item t item in
        let dropped = Engine.apply engine ev in
        if
          oracle
          && not
               (String.equal
                  (Compact.Snapshot.to_string (Engine.topology engine))
                  (Compact.Snapshot.to_string (Engine.refreeze t [ ev ])))
        then
          failwith
            "oracle divergence — incremental freeze does not match full \
             re-freeze";
        line (render_event t ev dropped)
  in
  Obs.with_span "serve.drain" (fun () ->
      List.iteri
        (fun pos item ->
          (* [pos] counts parsed items, not lines: [Stream.parse] drops
             comments and blank lines. *)
          let locate msg =
            Printf.sprintf "Serve.run: item %d (%s): %s" (pos + 1)
              (Stream.item_to_string item) msg
          in
          try serve item with
          | Invalid_argument msg -> invalid_arg (locate msg)
          | Failure msg -> failwith (locate msg))
        stream);
  let transcript = Buffer.contents buf in
  {
    transcript;
    stats = Engine.stats engine;
    fingerprint = Digest.to_hex (Digest.string transcript);
  }
