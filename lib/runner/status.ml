module Json = Elastic_metrics.Json

let schema = "elastic-speculation/status/v1"

let doc ~source ~campaign ~shards ~pending ~running ~completed ~failed
    ~resumed ~retried ~attempts ~elapsed ~eta ~healthy ~stalls
    ~utilization ~slowest extra =
  Json.Jsonl.tag ~schema
    ([ ("source", Json.Str source);
       ("campaign", campaign);
       ("shards", Json.Int shards);
       ("pending", Json.Int pending);
       ("running", Json.Int running);
       ("completed", Json.Int completed);
       ("failed", Json.Int failed);
       ("resumed", Json.Int resumed);
       ("retried", Json.Int retried);
       ("attempts", Json.Int attempts);
       ("elapsed_seconds", Json.Float elapsed);
       ("eta_seconds",
        match eta with Some e -> Json.Float e | None -> Json.Null);
       ("healthy", Json.Bool healthy);
       ("stalls", Json.Int stalls);
       ("workers",
        Json.List
          (List.map
             (fun (w, u) ->
                Json.Obj
                  [ ("worker", Json.Int w); ("utilization", Json.Float u) ])
             utilization));
       ("slowest",
        match slowest with
        | Some (id, index, seconds, attempts) ->
          Json.Obj
            [ ("shard", Json.Str id);
              ("index", Json.Int index);
              ("seconds", Json.Float seconds);
              ("attempts", Json.Int attempts) ]
        | None -> Json.Null) ]
     @ extra)

let of_progress ?(healthy = true) ?(stalls = 0) ?(utilization = []) p =
  match p with
  | None ->
    doc ~source:"idle" ~campaign:Json.Null ~shards:0 ~pending:0 ~running:0
      ~completed:0 ~failed:0 ~resumed:0 ~retried:0 ~attempts:0 ~elapsed:0.0
      ~eta:None ~healthy ~stalls ~utilization ~slowest:None []
  | Some p ->
    let c = Progress.counts p in
    doc ~source:"live"
      ~campaign:(Json.Str (Progress.name p))
      ~shards:(Progress.shards p) ~pending:c.Progress.c_pending
      ~running:c.Progress.c_running ~completed:c.Progress.c_completed
      ~failed:c.Progress.c_failed ~resumed:(Progress.resumed p)
      ~retried:(Progress.retried p) ~attempts:(Progress.attempts_total p)
      ~elapsed:(Progress.elapsed_seconds p)
      ~eta:(Progress.eta_seconds p) ~healthy ~stalls ~utilization
      ~slowest:(Progress.slowest p) []

let of_checkpoint (cp : Checkpoint.t) =
  let completed = List.length cp.Checkpoint.entries in
  let shards = max completed cp.Checkpoint.header.Checkpoint.shards in
  let retried =
    List.length
      (List.filter
         (fun (e : Checkpoint.entry) -> e.Checkpoint.e_attempts > 1)
         cp.Checkpoint.entries)
  in
  let attempts =
    List.fold_left
      (fun acc (e : Checkpoint.entry) -> acc + e.Checkpoint.e_attempts)
      0 cp.Checkpoint.entries
  in
  let elapsed =
    List.fold_left
      (fun acc (e : Checkpoint.entry) -> acc +. e.Checkpoint.e_seconds)
      0.0 cp.Checkpoint.entries
  in
  let slowest =
    List.fold_left
      (fun acc (e : Checkpoint.entry) ->
         match acc with
         | Some (_, _, secs, _) when secs >= e.Checkpoint.e_seconds -> acc
         | _ ->
           Some
             (e.Checkpoint.e_id, e.Checkpoint.e_index,
              e.Checkpoint.e_seconds, e.Checkpoint.e_attempts))
      None cp.Checkpoint.entries
  in
  let slowest =
    (* Pre-spans checkpoints carry no per-shard seconds: no slowest. *)
    match slowest with
    | Some (_, _, 0.0, _) -> None
    | s -> s
  in
  doc ~source:"checkpoint"
    ~campaign:(Json.Str cp.Checkpoint.header.Checkpoint.campaign)
    ~shards
    ~pending:(shards - completed)
    ~running:0 ~completed ~failed:0 ~resumed:0 ~retried ~attempts ~elapsed
    ~eta:None ~healthy:true ~stalls:0 ~utilization:[] ~slowest
    [ ("truncated", Json.Bool cp.Checkpoint.truncated);
      ("command",
       match cp.Checkpoint.header.Checkpoint.command with
       | Some c -> Json.Str c
       | None -> Json.Null) ]
