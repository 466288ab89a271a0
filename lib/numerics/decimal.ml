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
