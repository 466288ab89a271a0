(** Numbers written in plain decimal.

    The text formats (service streams, intent specs, CAIDA as-rel2 lines)
    read AS numbers and counts with {!nat_of_string_opt}, and intent
    metric weights and geo-fence numbers with {!float_of_string_opt},
    rather than [int_of_string_opt] or [float_of_string_opt], which also
    take OCaml literal syntax: a sign ([+3]), a base prefix ([0x2],
    [0o10], [0b1], the hexadecimal float [0x1p3]) or digit separators
    ([1_2]). *)

val nat_of_string_opt : string -> int option
(** [Some n] when the string is one or more ASCII digits [0-9] and
    nothing else, with value [n <= max_int] (leading zeros allowed);
    [None] for anything else, including the empty string and values
    above [max_int]. *)

val float_of_string_opt : string -> float option
(** [Some x] when the string is an optional [-], then ASCII digits with
    at most one [.] among or after them (at least one digit in all), then
    optionally [e] or [E], an optional [-] or [+] and one or more digits
    — and nothing else; [x] is the nearest double, infinite when the
    magnitude overflows.  [None] for anything else, including a leading
    [+], [inf], [nan], hexadecimal floats and [_] separators. *)
