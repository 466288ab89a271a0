(** The MA-conclusion scenarios of §VI and Figs. 3–6, under which
    {!Path_enum_compact} enumerates a source's length-3 paths. *)

type scenario =
  | Grc  (** no MAs concluded: baseline *)
  | Ma_all  (** all MAs concluded; direct and indirect gains *)
  | Ma_direct_only  (** all MAs concluded; count only directly gained paths *)
  | Ma_top of int  (** the source concludes only its [n] best MAs *)

val scenario_label : scenario -> string
