(** Non-negative integers written in plain decimal.

    The text formats (service streams, intent specs, CAIDA as-rel2 lines)
    read AS numbers and counts with this one reader rather than
    [int_of_string_opt], which also takes OCaml literal syntax: a sign
    ([+3], [-0]), a base prefix ([0x2], [0o10], [0b1]) or digit
    separators ([1_2]). *)

val nat_of_string_opt : string -> int option
(** [Some n] when the string is one or more ASCII digits [0-9] and
    nothing else, with value [n <= max_int] (leading zeros allowed);
    [None] for anything else, including the empty string and values
    above [max_int]. *)
