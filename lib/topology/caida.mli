(** Reader and writer for the CAIDA AS-relationships format ("as-rel2").

    The paper's evaluation (§VI) is based on the CAIDA serial-2 dataset.
    That dataset is not redistributable here, so the experiments default to
    a synthetic topology ({!Gen}); this module lets a user substitute the
    real file unchanged.

    Format: one relationship per line, [#]-prefixed comment lines ignored:
    {v
    <as1>|<as2>|-1|<source>   provider(as1) -> customer(as2)
    <as1>|<as2>|0|<source>    peer(as1) -- peer(as2)
    v}
    The trailing [<source>] field is optional, as in older serials. *)

exception Parse_error of { line : int; text : string; reason : string }

val parse_line : int -> string -> (Asn.t * Asn.t * Graph.relationship) option
(** Parse a single line ([None] for comments/blank lines). The returned
    relationship is the role of the second AS relative to the first, i.e.
    [-1] yields [Customer]. @raise Parse_error on malformed input,
    including a self-link. *)

val of_lines : string Seq.t -> Graph.t
(** Build a graph from the lines of a dataset.  A repeated line is
    ignored.
    @raise Parse_error on malformed input, on a line giving a pair a
    relationship other than the one an earlier line gave it, or on an
    input with no relationship line at all (reported at its last line,
    line 1 when it is empty). *)

val of_string : string -> Graph.t
(** Parse a whole dataset held in memory. *)

val load : string -> Graph.t
(** [load path] reads and parses the file at [path]. *)

val to_string : Graph.t -> string
(** Serialize a graph back to the as-rel2 format (source field ["panagree"]),
    links sorted for reproducible output. *)

val save : string -> Graph.t -> unit
