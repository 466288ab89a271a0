exception Parse_error of { line : int; text : string; reason : string }

let fail line text reason = raise (Parse_error { line; text; reason })

let parse_line lineno text =
  let trimmed = String.trim text in
  if trimmed = "" || String.length trimmed > 0 && trimmed.[0] = '#' then None
  else
    match String.split_on_char '|' trimmed with
    | as1 :: as2 :: rel :: _rest -> (
        let parse_asn s =
          match Pan_numerics.Decimal.nat_of_string_opt (String.trim s) with
          | Some n -> Asn.of_int n
          | None -> fail lineno text (Printf.sprintf "bad AS number %S" s)
        in
        let a = parse_asn as1 and b = parse_asn as2 in
        if Asn.equal a b then
          fail lineno text (Printf.sprintf "self-link on AS%d" (Asn.to_int a));
        match String.trim rel with
        | "-1" -> Some (a, b, Graph.Customer)
        | "0" -> Some (a, b, Graph.Peer)
        | other -> fail lineno text (Printf.sprintf "bad relationship %S" other)
        )
    | _ -> fail lineno text "expected at least 3 '|'-separated fields"

(* A repeated line is harmless; a pair given a second, different
   relationship is rejected here, at its line, rather than by [Graph].
   An input without a single relationship is rejected at its last line,
   not handed on as an empty graph that every statistic would choke on. *)
let of_lines lines =
  let g = Graph.create () in
  let lineno = ref 0 and last = ref "" in
  Seq.iter
    (fun text ->
      incr lineno;
      last := text;
      match parse_line !lineno text with
      | None -> ()
      | Some (a, b, rel) -> (
          (* [a]'s role as seen from [b] *)
          let role = if rel = Graph.Customer then Graph.Provider else rel in
          (match Graph.relationship g b a with
          | Some r when r <> role ->
              fail !lineno text
                (Printf.sprintf
                   "AS%d and AS%d are already linked with another \
                    relationship"
                   (Asn.to_int a) (Asn.to_int b))
          | _ -> ());
          match rel with
          | Graph.Customer ->
              Graph.add_provider_customer g ~provider:a ~customer:b
          | Graph.Peer -> Graph.add_peering g a b
          | Graph.Provider -> assert false))
    lines;
  if Graph.num_ases g = 0 then fail (max 1 !lineno) !last "no AS relationships";
  g

let of_string s = of_lines (String.split_on_char '\n' s |> List.to_seq)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = In_channel.input_lines ic in
      of_lines (List.to_seq lines))

let to_string g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# panagree as-rel2 export\n";
  let p2c =
    Graph.fold_provider_customer_links
      (fun ~provider ~customer acc -> (provider, customer) :: acc)
      g []
    |> List.sort compare
  in
  List.iter
    (fun (p, c) ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%d|-1|panagree\n" (Asn.to_int p) (Asn.to_int c)))
    p2c;
  let p2p =
    Graph.fold_peering_links (fun x y acc -> (x, y) :: acc) g []
    |> List.sort compare
  in
  List.iter
    (fun (x, y) ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%d|0|panagree\n" (Asn.to_int x) (Asn.to_int y)))
    p2p;
  Buffer.contents buf

let save path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string g))
