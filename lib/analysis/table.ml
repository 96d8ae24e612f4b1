type t = { columns : string list; mutable rows : string list list }

let create ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- t.rows @ [ row ]

let render t =
  let all = t.columns :: t.rows in
  let arity = List.length t.columns in
  let widths =
    List.init arity (fun i ->
        List.fold_left (fun acc row -> Stdlib.max acc (String.length (List.nth row i))) 0 all)
  in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           let w = List.nth widths i in
           let pad = String.make (w - String.length cell) ' ' in
           if i = 0 then cell ^ pad else pad ^ cell)
         row)
  in
  let rule = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (render_row t.columns :: rule :: List.map render_row t.rows) ^ "\n"

let cell_time t = Printf.sprintf "%.3fs" (Engine.Time.to_sec_f t)
