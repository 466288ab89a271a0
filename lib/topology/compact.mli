(** Frozen, immutable view of a {!Graph}: dense [Asn.t ↔ int] interning
    plus sorted int-array adjacency rows, segmented by relationship class.

    {!Graph.t} stays the {e builder} — hash tables of functional sets,
    convenient while a topology is read from a file or generated.  Once
    the topology stops changing, {!freeze} compacts it into this view:

    - every AS gets a dense index in [0 .. num_ases - 1], assigned in
      ascending ASN order (so index order = ASN order everywhere);
    - each relationship class (providers / peers / customers) is a
      two-level row table: a block table of [⌈num_ases / 64⌉] blocks,
      each holding up to 64 rows, every row an [int array] sorted
      ascending (all empty rows are one shared [[||]]).

    The result is immutable — no block or row is written once built —
    so a single frozen topology is shared read-only across [pan_runner]
    worker domains (no per-worker copy, no locks), and a {!Delta} splice
    shares every block and row it does not change.  {!degree} is O(1)
    (three row lengths) and {!iter_neighbors} allocates nothing, unlike
    the set-union-based {!Graph.neighbors}.

    When {!Pan_obs.Obs} is configured, {!freeze} records a
    [topology.freeze] span and the [topology.freeze] /
    [topology.compact.*] counters, so metric snapshots show how often the
    compact core was (re)built and at what size. *)

type t

val freeze : Graph.t -> t
(** Snapshot the builder.  Later mutations of the graph are not seen. *)

val num_ases : t -> int
val num_provider_customer_links : t -> int
val num_peering_links : t -> int

val id : t -> int -> Asn.t
(** The ASN interned at an index ([ids] are ascending). *)

val asns : t -> Asn.t array
(** All ASNs, ascending — a fresh copy, same contents as
    {!Graph.ases}. *)

val index_of : t -> Asn.t -> int option
(** Binary search over the interning table; [None] for unknown ASes. *)

val index_of_exn : t -> Asn.t -> int
(** @raise Invalid_argument for an AS not in the topology. *)

val degree : t -> int -> int
(** O(1): providers + peers + customers row lengths. *)

val providers_count : t -> int -> int
val peers_count : t -> int -> int
val customers_count : t -> int -> int

val iter_providers : t -> int -> (int -> unit) -> unit
(** Ascending row iteration; allocation-free. *)

val iter_peers : t -> int -> (int -> unit) -> unit
val iter_customers : t -> int -> (int -> unit) -> unit

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Providers, then peers, then customers (each row ascending);
    allocation-free, unlike {!Graph.neighbors} which builds two set
    unions. *)

val mem_provider : t -> int -> int -> bool
(** [mem_provider t x y]: is [y] a provider of [x]?  Binary search in the
    row. *)

val mem_peer : t -> int -> int -> bool
val mem_customer : t -> int -> int -> bool
val connected : t -> int -> int -> bool

val add_providers : t -> int -> Bitset.t -> unit
(** OR the providers row of an AS into a bitset (of width
    [num_ases]). *)

val add_peers : t -> int -> Bitset.t -> unit
val add_customers : t -> int -> Bitset.t -> unit

val iter_peering_links : t -> (int -> int -> unit) -> unit
(** Each undirected peering link once, endpoints ascending, links in
    deterministic (first endpoint, then second) order. *)

val iter_provider_customer_links :
  t -> (provider:int -> customer:int -> unit) -> unit
(** Deterministic: providers ascending, customers ascending within each
    provider. *)

val pp_stats : Format.formatter -> t -> unit

val view : t -> Graph.view
(** The ASN-level neighbor view: each query interns the AS (binary
    search), then turns a row into a set, or answers [degree] in O(1). *)

val thaw : t -> Graph.t
(** Rebuild an equivalent mutable builder: every interned AS registered,
    every link re-added.  [freeze (thaw t)] is byte-identical to [t]
    (both intern ascending), so editing the thawed graph and freezing it
    again is the from-scratch reference for {!Delta.apply_batch}. *)

(** Link updates to a frozen view — the {e incremental freeze} used by
    the resident path-query service under link churn and by the
    marketplace's epoch splice.  This module owns the link-edit type
    and its validation: the path service's [Engine] re-exports the type
    as its [link] and [event] and validates nothing itself.

    One batch of edits is validated once and spliced once, returning a
    {e new} [t] by path copying; the input itself is never mutated.  A
    class no edit changes is shared with the input.  In a changed class,
    the block table is copied once, each block holding a changed row
    once, and each changed row is rebuilt once by merging its sorted
    changes in; every other block and row is shared.  Cost per batch:
    O(edits · log) to validate and sort, plus, per changed class,
    O(num_ases / 64) for the block table, 64 words per touched block and
    the length of each changed row — far below a full {!freeze}, which
    re-sorts every row from the hash-table builder.

    Invariant: the result is byte-identical (via {!Snapshot.to_string})
    to [freeze] of the {!thaw}ed graph with the same edits applied in
    order; the service's re-freeze oracle and the churn-equivalence
    qcheck suite both lean on this.

    Endpoints are dense indices (as used by the query layer), and the AS
    set never changes — churn flips links, not ASes. *)
module Delta : sig
  type link =
    | Peer of int * int  (** endpoints as dense indices, either order *)
    | Transit of { provider : int; customer : int }

  (** One link edit of a batch. *)
  type edit = Link_up of link | Link_down of link

  val endpoints : edit -> int * int
  (** [(i, j)] of a [Peer (i, j)], [(provider, customer)] of a
      [Transit]. *)

  val apply_batch : t -> edit list -> (t, string) result
  (** [apply_batch t edits] applies the edits left-to-right in one
      splice — the marketplace epoch loop applies hundreds of signed
      agreements per epoch this way, and [serve] churn replay uses the
      same entry point.  Each edit is validated against the state left
      by the earlier edits of the batch, so edits may revisit the same
      pair (an up-then-down chain leaves the pair as it was).  On
      success, increments [topology.delta.add]/[remove] per edit plus
      one [topology.delta.batch] ([Ok t] and no counter for [[]]).

      [Error reason] says why the first inapplicable edit fails, naming
      the offending ASNs, and nothing is counted: an out-of-range index
      (["index 9 outside [0, 5)"]), a self-link (["self-link on AS2"]),
      a link up on a pair already linked in any class (["AS1 and AS2
      are already linked"]), or a link down of a link that is absent or
      of the other class (["AS1 and AS3 are not peers"], ["AS4 is not a
      provider of AS5"]).  The caller prefixes its own name. *)
end

(** Immutable subgraph restrictions over a frozen view — the masked
    traversal universe used by intent-based candidate generation.

    A mask pairs a blocked-AS bitset (width [num_ases]) with a
    normalized, sorted list of blocked undirected links.  Every
    operation returns a {e new} mask (the blocked state is small, so
    copies are cheap), which lets a mask live inside a memo key while
    link churn derives updated masks from it: a [Delta]-applied
    link-down event composes as {!Mask.exclude_link} and the matching
    link-up as {!Mask.restore_link}, without rebuilding the mask that
    the intent's own static exclusions produced.

    Masks restrict traversal only — the underlying [t] is untouched, so
    one frozen view serves arbitrarily many differently-masked queries
    concurrently. *)
module Mask : sig
  type mask

  val all : t -> mask
  (** No restriction: every AS and link of [t] is allowed. *)

  val width : mask -> int

  val exclude_as : mask -> int -> mask
  (** Block a dense AS index (and implicitly every link at it).
      @raise Invalid_argument on an out-of-range index. *)

  val exclude_link : mask -> int -> int -> mask
  (** Block one undirected link (endpoints in either order); idempotent.
      @raise Invalid_argument on out-of-range indices or a self-link. *)

  val restore_link : mask -> int -> int -> mask
  (** Unblock a link previously blocked with {!exclude_link}; removing a
      link that is not blocked is a no-op.  This is the inverse used
      when a downed link comes back up. *)

  val allows_as : mask -> int -> bool

  val allows_link : mask -> int -> int -> bool
  (** Both endpoints allowed and the link itself not blocked. *)

  val is_trivial : mask -> bool
  (** [true] iff the mask blocks nothing. *)

  val excluded_ases : mask -> int list
  (** Ascending. *)

  val excluded_links : mask -> (int * int) list
  (** Normalized (lo, hi), ascending. *)

  val equal : mask -> mask -> bool
end

(** Versioned binary snapshots of the frozen view.

    A snapshot file is the frozen core behind a 36-byte header: an
    8-byte magic, a u32 format version, the u64 payload length, and an
    MD5 checksum of the payload.  The payload stores the interned-ASN
    table and the three relationship classes in CSR form (row offsets as
    prefix sums, then the entries), so [load] reads each row straight
    out of the image into the exact frozen view, without re-parsing or
    re-freezing — a full-CAIDA service starts in milliseconds.

    Stale or damaged files are rejected loudly: bad magic, an unknown
    format version, a truncated payload, and a checksum mismatch each
    raise [Invalid_argument] with a distinct message — never a decode
    crash on corrupt bytes.  So is a u64 field whose value does not fit
    in an OCaml int, or a negative length, at its byte offset, so two
    images never decode to the same view. *)
module Snapshot : sig
  val format_version : int
  (** Bumped whenever the binary layout changes; [load] refuses other
      versions. *)

  val to_string : t -> string
  (** Serialize.  Equal views give equal bytes. *)

  val of_string : string -> t
  (** Parse a snapshot image.
      @raise Invalid_argument on any malformed input. *)

  val save : string -> t -> unit
  (** Write [to_string] to a file. *)

  val load : string -> t
  (** Read and decode a snapshot file.  Records [topology.snapshot.load]
      / [topology.snapshot.ases] when {!Pan_obs.Obs} is configured.
      @raise Invalid_argument as {!of_string}, [Sys_error] on I/O. *)
end
