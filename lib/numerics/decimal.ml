let nat_of_string_opt s =
  let len = String.length s in
  (* [acc * 10 + d <= max_int] iff [acc <= (max_int - d) / 10] *)
  let rec go i acc =
    if i = len then Some acc
    else
      match s.[i] with
      | '0' .. '9' as ch ->
          let d = Char.code ch - Char.code '0' in
          if acc > (max_int - d) / 10 then None else go (i + 1) ((acc * 10) + d)
      | _ -> None
  in
  if len = 0 then None else go 0 0

let float_of_string_opt s =
  let len = String.length s in
  let digits i =
    let j = ref i in
    while !j < len && s.[!j] >= '0' && s.[!j] <= '9' do
      incr j
    done;
    !j
  in
  let start = if len > 0 && s.[0] = '-' then 1 else 0 in
  let int_end = digits start in
  let frac_end =
    if int_end < len && s.[int_end] = '.' then digits (int_end + 1)
    else int_end
  in
  (* at least one mantissa digit, before or after the point *)
  let mantissa = int_end > start || frac_end > int_end + 1 in
  let stop =
    if frac_end < len && (s.[frac_end] = 'e' || s.[frac_end] = 'E') then
      let k = frac_end + 1 in
      let k = if k < len && (s.[k] = '-' || s.[k] = '+') then k + 1 else k in
      let e = digits k in
      if e > k then e else -1
    else frac_end
  in
  if mantissa && stop = len then Some (Stdlib.float_of_string s) else None
