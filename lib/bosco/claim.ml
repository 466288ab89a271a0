open Pan_numerics

type t = float array

let cancel = neg_infinity

let of_list claims =
  List.iter
    (fun c ->
      if Float.is_nan c then invalid_arg "Claim.of_list: NaN claim";
      if c = infinity then invalid_arg "Claim.of_list: +inf claim")
    claims;
  let all = cancel :: claims in
  Array.of_list (List.sort_uniq compare all)

let values t = t
let cardinality t = Array.length t

(* Choice sets are built once per game and never copied, so the
   dynamics compare a set with itself: the physical test settles it (no
   claim is NaN, so every element equals itself). *)
let equal ?(tol = 0.0) t1 t2 =
  t1 == t2
  ||
  let n = Array.length t1 in
  n = Array.length t2
  &&
  let i = ref 0 in
  while
    !i < n && (t1.(!i) = t2.(!i) || Float.abs (t1.(!i) -. t2.(!i)) <= tol)
  do
    incr i
  done;
  !i = n

let sample rng dist w =
  if w < 1 then invalid_arg "Claim.sample: w < 1";
  of_list (List.init w (fun _ -> Distribution.sample dist rng))

let grid dist w =
  if w < 1 then invalid_arg "Claim.grid: w < 1";
  if w = 1 then of_list [ Distribution.quantile dist 0.5 ]
  else
    let lo = Distribution.quantile dist 0.01
    and hi = Distribution.quantile dist 0.99 in
    of_list
      (List.init w (fun i ->
           lo +. ((hi -. lo) *. float_of_int i /. float_of_int (w - 1))))

let pp fmt t =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       (fun fmt v ->
         if v = neg_infinity then Format.pp_print_string fmt "-inf"
         else Format.fprintf fmt "%g" v))
    (Array.to_list t)
