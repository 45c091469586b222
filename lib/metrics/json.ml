type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | '\r' -> Buffer.add_string b "\\r"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_string ?(indent = 0) t =
  let b = Buffer.create 1024 in
  let pad n = Buffer.add_string b (String.make n ' ') in
  let rec emit ~level t =
    match t with
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
      if Float.is_finite f then
        Buffer.add_string b (Printf.sprintf "%.6g" f)
      else Buffer.add_string b "null"
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List items ->
      if indent = 0 then begin
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
             if i > 0 then Buffer.add_char b ',';
             emit ~level item)
          items;
        Buffer.add_char b ']'
      end
      else begin
        Buffer.add_string b "[\n";
        List.iteri
          (fun i item ->
             if i > 0 then Buffer.add_string b ",\n";
             pad (level + indent);
             emit ~level:(level + indent) item)
          items;
        Buffer.add_char b '\n';
        pad level;
        Buffer.add_char b ']'
      end
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      let field ~level (k, v) =
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b (if indent = 0 then "\":" else "\": ");
        emit ~level v
      in
      if indent = 0 then begin
        Buffer.add_char b '{';
        List.iteri
          (fun i kv ->
             if i > 0 then Buffer.add_char b ',';
             field ~level kv)
          fields;
        Buffer.add_char b '}'
      end
      else begin
        Buffer.add_string b "{\n";
        List.iteri
          (fun i kv ->
             if i > 0 then Buffer.add_string b ",\n";
             pad (level + indent);
             field ~level:(level + indent) kv)
          fields;
        Buffer.add_char b '\n';
        pad level;
        Buffer.add_char b '}'
      end
  in
  emit ~level:0 t;
  Buffer.contents b

exception Parse_error of string

(* Corrupt input (a truncated checkpoint, a garbage baseline) must come
   back as [Error] with a byte position, never as an exception — and
   never as a [Stack_overflow], hence the nesting cap: our own emitters
   produce depth <= 6, so 1000 is pure paranoia headroom. *)
let max_depth = 1000

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Fmt.str "at offset %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Fmt.str "expected %C, found %C" c c')
    | None -> fail (Fmt.str "expected %C, found end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
      pos := !pos + l;
      value
    end
    else fail (Fmt.str "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char b '"'; advance ()
         | Some '\\' -> Buffer.add_char b '\\'; advance ()
         | Some '/' -> Buffer.add_char b '/'; advance ()
         | Some 'n' -> Buffer.add_char b '\n'; advance ()
         | Some 't' -> Buffer.add_char b '\t'; advance ()
         | Some 'r' -> Buffer.add_char b '\r'; advance ()
         | Some 'b' -> Buffer.add_char b '\b'; advance ()
         | Some 'f' -> Buffer.add_char b '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           let code =
             try int_of_string ("0x" ^ hex)
             with Failure _ -> fail "invalid \\u escape"
           in
           pos := !pos + 4;
           (* Basic-plane code points only; enough for our own output. *)
           if code < 0x80 then Buffer.add_char b (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char b
               (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
           end
         | _ -> fail "invalid escape");
        go ()
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
        is_float := true;
        true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Fmt.str "invalid number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Fmt.str "invalid number %S" text))
  in
  let rec parse_value ~depth () =
    if depth > max_depth then fail "nesting deeper than 1000 levels";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value ~depth:(depth + 1) () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value ~depth:(depth + 1) () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value ~depth:(depth + 1) () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value ~depth:0 () in
    skip_ws ();
    if !pos <> n then Error (Fmt.str "trailing content at offset %d" !pos)
    else Ok v
  with
  | Parse_error msg -> Error msg
  | Failure msg | Invalid_argument msg ->
    (* Integrity backstop: no path above is expected to raise, but a
       parser must never let corrupt input escape as an exception. *)
    Error (Fmt.str "at offset %d: %s" !pos msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Bool _ | Str _ | List _ | Obj _ -> None

module Jsonl = struct
  type error =
    | Empty
    | Not_json of { line : int; msg : string }
    | No_schema of { line : int }
    | Wrong_schema of { line : int; found : string; want : string }
    | Bad_row of { line : int; msg : string }

  let error_to_string = function
    | Empty -> "empty file"
    | Not_json { line; msg } -> Fmt.str "line %d: not JSON: %s" line msg
    | No_schema { line } ->
      Fmt.str "line %d: no \"schema\" string as the first field" line
    | Wrong_schema { line; found; want } ->
      Fmt.str "line %d: schema %S, want %S" line found want
    | Bad_row { line; msg } -> Fmt.str "line %d: %s" line msg

  let tag ~schema fields = Obj (("schema", Str schema) :: fields)

  let to_string ~schema header rows =
    let b = Buffer.create 4096 in
    List.iter
      (fun j ->
         Buffer.add_string b (to_string j);
         Buffer.add_char b '\n')
      (tag ~schema header :: rows);
    Buffer.contents b

  let check_line ~line ~schema = function
    | Obj (("schema", Str found) :: _) ->
      if String.equal found schema then Ok ()
      else Error (Wrong_schema { line; found; want = schema })
    | Null | Bool _ | Int _ | Float _ | Str _ | List _ | Obj _ ->
      Error (No_schema { line })

  let check ~schema j = check_line ~line:1 ~schema j

  let read ~schema ~header ~row text =
    let ( let* ) = Result.bind in
    let decode line f l =
      match parse l with
      | Error msg -> Error (Not_json { line; msg })
      | Ok j -> Result.map_error (fun msg -> Bad_row { line; msg }) (f j)
    in
    (* Line numbers count every physical line; blank lines are skipped. *)
    let lines =
      List.filter (fun (_, l) -> l <> "")
        (List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' text))
    in
    (* A file cut off mid-append has no final newline: its last line is
       lost data, not corruption. *)
    let cut =
      String.length text > 0 && text.[String.length text - 1] <> '\n'
    in
    match lines with
    | [] -> Error Empty
    | (line, first) :: rest ->
      let* j =
        Result.map_error (fun msg -> Not_json { line; msg }) (parse first)
      in
      let* () = check_line ~line ~schema j in
      let* h = Result.map_error (fun msg -> Bad_row { line; msg }) (header j) in
      let rec go acc = function
        | [] -> Ok (List.rev acc, false)
        | (line, l) :: rest -> (
            match decode line row l with
            | Ok r -> go (r :: acc) rest
            | Error _ when rest = [] && cut -> Ok (List.rev acc, true)
            | Error e -> Error e)
      in
      let* rows, truncated = go [] rest in
      Ok (h, rows, truncated)
end
