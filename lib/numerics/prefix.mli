(** Prefix/suffix sums and sorted-array search over float arrays.

    Suffix sums rather than prefix-sum differences when a tail is
    wanted: a suffix of tiny mass would inherit the absolute error of
    the total, while a tail-up accumulation of non-negative terms keeps
    full relative precision.  The BOSCO best-response kernel accumulates
    its Eq. 16/17 suffix sums that way, inline in its workspace, and
    finds their boundaries with one walk rather than {!lower_bound}. *)

val exclusive_sums : float array -> float array
(** [exclusive_sums xs] has length [n + 1] with element [i] the sum of
    [xs.(0) .. xs.(i-1)] (element 0 is [0.]), accumulated left to right. *)

val exclusive_sums_into : dst:float array -> float array -> unit
(** Allocation-free {!exclusive_sums}: fills [dst.(0 .. n)] and ignores any
    further elements, so workspaces can reuse one oversized buffer.
    @raise Invalid_argument if [dst] is shorter than [n + 1]. *)

val suffix_sums : float array -> float array
(** [suffix_sums xs] has length [n + 1] with element [i] the sum of
    [xs.(i) .. xs.(n-1)] (element [n] is [0.]), accumulated right to
    left. *)

val suffix_sums_into : dst:float array -> float array -> unit
(** Allocation-free {!suffix_sums}; fills [dst.(0 .. n)].
    @raise Invalid_argument if [dst] is shorter than [n + 1]. *)

val range_sum : float array -> int -> int -> float
(** [range_sum sums i j] is the sum of the underlying elements
    [i .. j-1], i.e. [sums.(j) -. sums.(i)].
    @raise Invalid_argument unless [0 <= i <= j < length sums]. *)

val lower_bound : ?lo:int -> ?hi:int -> float array -> float -> int
(** [lower_bound xs x] is the smallest index [i] (within [\[lo, hi)],
    default the whole array) with [xs.(i) >= x], or [hi] if there is none;
    [xs] must be sorted ascending on that range.
    @raise Invalid_argument on a bad range. *)
