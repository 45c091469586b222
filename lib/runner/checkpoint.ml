module Json = Elastic_metrics.Json
module Metrics = Elastic_metrics.Metrics

let schema = "elastic-speculation/checkpoint/v1"

type header = {
  campaign : string;
  command : string option;
  shards : int;
  seed : int;
}

type entry = {
  e_id : string;
  e_index : int;
  e_attempts : int;
  e_seconds : float;
  e_samples : Metrics.sample list;
}

type t = {
  header : header;
  entries : entry list;
  truncated : bool;
}

let header_fields h =
  [ ("campaign", Json.Str h.campaign);
    ("command",
     match h.command with Some c -> Json.Str c | None -> Json.Null);
    ("shards", Json.Int h.shards);
    ("seed", Json.Int h.seed) ]

let header_of_json j =
  let ( let* ) = Result.bind in
  let* campaign =
    match Json.member "campaign" j with
    | Some (Json.Str s) -> Ok s
    | Some _ | None -> Error "checkpoint header: bad \"campaign\" field"
  in
  let* command =
    match Json.member "command" j with
    | Some (Json.Str s) -> Ok (Some s)
    | Some Json.Null | None -> Ok None
    | Some _ -> Error "checkpoint header: bad \"command\" field"
  in
  let* shards =
    match Json.member "shards" j with
    | Some (Json.Int i) when i >= 0 -> Ok i
    | Some _ | None -> Error "checkpoint header: bad \"shards\" field"
  in
  let* seed =
    match Json.member "seed" j with
    | Some (Json.Int i) -> Ok i
    | Some _ | None -> Error "checkpoint header: bad \"seed\" field"
  in
  Ok { campaign; command; shards; seed }

let entry_to_json e =
  Json.Obj
    [ ("shard", Json.Str e.e_id);
      ("index", Json.Int e.e_index);
      ("attempts", Json.Int e.e_attempts);
      ("seconds", Json.Float e.e_seconds);
      ("samples", Metrics.samples_to_json e.e_samples) ]

let entry_of_json j =
  let ( let* ) = Result.bind in
  let* id =
    match Json.member "shard" j with
    | Some (Json.Str s) -> Ok s
    | Some _ | None -> Error "entry: bad \"shard\" field"
  in
  let* index =
    match Json.member "index" j with
    | Some (Json.Int i) when i >= 0 -> Ok i
    | Some _ | None -> Error "entry: bad \"index\" field"
  in
  let* attempts =
    match Json.member "attempts" j with
    | Some (Json.Int i) when i >= 1 -> Ok i
    | Some _ | None -> Error "entry: bad \"attempts\" field"
  in
  (* Absent in pre-spans checkpoints: default 0.0, still loadable. *)
  let* seconds =
    match Json.member "seconds" j with
    | Some s -> (
        match Json.to_float s with
        | Some f when f >= 0.0 -> Ok f
        | Some _ | None -> Error "entry: bad \"seconds\" field")
    | None -> Ok 0.0
  in
  let* samples =
    match Json.member "samples" j with
    | Some s -> Metrics.samples_of_json s
    | None -> Error "entry: \"samples\" field missing"
  in
  Ok { e_id = id; e_index = index; e_attempts = attempts;
       e_seconds = seconds; e_samples = samples }

let write ~path header entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
       output_string oc
         (Json.Jsonl.to_string ~schema (header_fields header)
            (List.map entry_to_json entries));
       flush oc);
  Sys.rename tmp path

let append ~path e =
  let oc =
    open_out_gen [ Open_append; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
       output_string oc (Json.to_string (entry_to_json e));
       output_char oc '\n';
       flush oc)

let load path =
  let ( let* ) = Result.bind in
  let* contents =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error msg -> Error msg
  in
  match
    Json.Jsonl.read ~schema ~header:header_of_json ~row:entry_of_json
      contents
  with
  | Ok (header, entries, truncated) -> Ok { header; entries; truncated }
  | Error e -> Error (Json.Jsonl.error_to_string e)

let pp_status ppf t =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "campaign %S: %d/%d shards checkpointed%s%a" t.header.campaign
    (List.length t.entries) t.header.shards
    (if t.truncated then " (final line truncated, dropped)" else "")
    (fun ppf -> function
       | Some c -> Fmt.pf ppf "; resume command: %S" c
       | None -> ())
    t.header.command;
  (* Per-shard outcomes.  Only completed shards reach the file, so
     "missing" covers both failed and never-started shards — the resume
     work list. *)
  (match t.entries with
  | [] -> ()
  | e0 :: _ ->
    let completed = List.length t.entries in
    let retried =
      List.length (List.filter (fun e -> e.e_attempts > 1) t.entries)
    in
    let missing = max 0 (t.header.shards - completed) in
    let attempts_total =
      List.fold_left (fun acc e -> acc + e.e_attempts) 0 t.entries
    in
    let seconds_total =
      List.fold_left (fun acc e -> acc +. e.e_seconds) 0.0 t.entries
    in
    let slowest =
      List.fold_left
        (fun acc e -> if e.e_seconds > acc.e_seconds then e else acc)
        e0 t.entries
    in
    Fmt.pf ppf
      "@,shards: %d completed (%d after retries), %d failed or not run@,\
       attempts: %d across completed shards, %.3fs total"
      completed retried missing attempts_total seconds_total;
    if slowest.e_seconds > 0.0 then
      Fmt.pf ppf "@,slowest shard: %s (index %d) %.3fs, %d attempt%s"
        slowest.e_id slowest.e_index slowest.e_seconds slowest.e_attempts
        (if slowest.e_attempts = 1 then "" else "s"));
  Fmt.pf ppf "@]"
