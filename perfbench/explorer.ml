(** The exhaustive schedule-and-crash explorer, run as a [prep_cli
    explore] subprocess. Its statistics are parsed from its output and
    its GC statistics are read from outside, through
    [OCAMLRUNPARAM=v=0x400] (the runtime prints them at exit). *)

type result = {
  host_s : float;  (** host CPU s of the subprocess (user + system) *)
  wall : float * float;  (** [Unix.gettimeofday] start and end *)
  exit_ok : bool;
  stats : (string * int) list;
      (** schedules, steps, states, recoveries, frontiers, max_loss,
          allocated_words, major_collections, top_heap_words *)
  exhausted : bool;
  no_violations : bool;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let words line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

(* the integer right after the word sequence [key] anywhere in [text] *)
let find_int text key =
  let rec scan = function
    | [] -> None
    | ws ->
      let rec prefix k ws =
        match (k, ws) with
        | [], v :: _ -> int_of_string_opt v
        | k1 :: kr, w :: wr when k1 = w -> prefix kr wr
        | _ -> None
      in
      (match prefix key ws with
       | Some v -> Some v
       | None -> scan (List.tl ws))
  in
  String.split_on_char '\n' text
  |> List.find_map (fun line -> scan (words line))

let stdout_keys =
  [ ("schedules", [ "schedules" ]); ("steps", [ "steps" ]);
    ("states", [ "states" ]); ("recoveries", [ "recoveries" ]);
    ("frontiers", [ "frontiers" ]);
    ("max_loss", [ "max"; "completed-op"; "loss" ]) ]

let gc_keys =
  [ ("allocated_words", [ "allocated_words:" ]);
    ("major_collections", [ "major_collections:" ]);
    ("top_heap_words", [ "top_heap_words:" ]) ]

let run ~cli ~out_dir ~args =
  let out = Filename.concat out_dir "explore.out"
  and err = Filename.concat out_dir "explore.err" in
  let open_w p = Unix.openfile p [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let fd_out = open_w out and fd_err = open_w err in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
    |> List.cons "OCAMLRUNPARAM=v=0x400"
    |> Array.of_list
  in
  let cpu () =
    let t = Unix.times () in
    t.tms_cutime +. t.tms_cstime
  in
  let c0 = cpu () and w0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process_env cli
      (Array.of_list (cli :: args))
      env Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let _, status = Unix.waitpid [] pid in
  let host_s = cpu () -. c0 and w1 = Unix.gettimeofday () in
  let so = read_file out and se = read_file err in
  let stats =
    List.filter_map
      (fun (name, key) -> Option.map (fun v -> (name, v)) (find_int so key))
      stdout_keys
    @ List.filter_map
        (fun (name, key) -> Option.map (fun v -> (name, v)) (find_int se key))
        gc_keys
  in
  let has_line s l = List.mem l (String.split_on_char '\n' s) in
  {
    host_s;
    wall = (w0, w1);
    exit_ok = status = Unix.WEXITED 0;
    stats;
    exhausted =
      List.exists
        (fun l ->
          match List.rev (words l) with
          | "true" :: "exhausted" :: _ -> true
          | _ -> false)
        (String.split_on_char '\n' so);
    no_violations = has_line so "no violations";
  }

let stat r name = List.assoc_opt name r.stats

(** Correctness of one exploration: clean exit, exhausted scope, no
    violations, and completed-op loss within [bound]. *)
let failures r ~bound =
  let missing =
    List.filter_map
      (fun (name, _) ->
        if stat r name = None then Some ("explorer printed no " ^ name)
        else None)
      (stdout_keys @ gc_keys)
  in
  missing
  @ List.filter_map Fun.id
      [
        (if r.exit_ok then None else Some "explorer exited nonzero");
        (if r.exhausted then None
         else Some "explorer did not print exhausted true");
        (if r.no_violations then None
         else Some "explorer did not print no violations");
        (match stat r "max_loss" with
         | Some l when l > bound ->
           Some
             (Printf.sprintf "explorer max completed-op loss %d > bound %d"
                l bound)
         | _ -> None);
      ]
