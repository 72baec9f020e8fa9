(* Schema check of the committed performance trajectory,
   BENCH_perfbench.json: one entry per performance change, each holding
   the commit it was measured at, the perfbench command and seed, a host
   note and perfbench's final JSON line. Only the shape is checked, never
   host speed. *)

module J = Telemetry.Json

let read path = In_channel.with_open_bin path In_channel.input_all

let str k o = match J.member k o with Some (J.Str s) -> Some s | _ -> None
let num k o = match J.member k o with Some (J.Num x) -> Some x | _ -> None

(* the end-to-end metric names BENCHMARK.json declares *)
let end_to_end () =
  match J.member "end_to_end" (J.parse (read "../BENCHMARK.json")) with
  | Some (J.List ms) -> List.filter_map (str "name") ms
  | _ -> Alcotest.fail "BENCHMARK.json: no end_to_end list"

let is_hex s =
  String.length s >= 7
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let check_entry ~metrics ~last i e =
  let field = Printf.sprintf "entry %d: %s" i in
  (match J.member "commit" e with
   | Some (J.Str c) -> Alcotest.(check bool) (field "commit is a hash") true (is_hex c)
   | Some J.Null ->
     (* the commit that adds an entry cannot name itself; the next entry's
        change fills it in *)
     Alcotest.(check bool) (field "only the newest entry has no commit yet") true last
   | _ -> Alcotest.fail (field "commit missing"));
  List.iter
    (fun k ->
      Alcotest.(check bool) (field (k ^ " is a non-empty string")) true
        (match str k e with Some s -> s <> "" | None -> false))
    [ "change"; "command"; "host" ];
  Alcotest.(check bool) (field "command runs perfbench") true
    (match str "command" e with
     | Some c -> String.starts_with ~prefix:"bash perfbench/run.sh " c
     | None -> false);
  Alcotest.(check bool) (field "seed is an integer") true
    (match num "seed" e with Some s -> Float.is_integer s | None -> false);
  match J.member "result" e with
  | Some r ->
    Alcotest.(check bool) (field "result.correct") true
      (J.member "correct" r = Some (J.Bool true));
    Alcotest.(check bool) (field "result.failed is 0") true (num "failed" r = Some 0.);
    Alcotest.(check bool) (field "result.attempted") true (num "attempted" r <> None);
    let ms = match J.member "metrics" r with Some m -> m | None -> J.Null in
    List.iter
      (fun m ->
        Alcotest.(check bool)
          (field (Printf.sprintf "metric %s has a value" m))
          true
          (match J.member m ms with Some v -> num "value" v <> None | None -> false))
      metrics
  | None -> Alcotest.fail (field "result missing")

let test_schema () =
  let v = J.parse (read "../BENCH_perfbench.json") in
  Alcotest.(check (option string)) "trajectory" (Some "perfbench") (str "trajectory" v);
  Alcotest.(check (option (float 0.))) "version" (Some 1.) (num "version" v);
  match J.member "entries" v with
  | Some (J.List (_ :: _ as es)) ->
    let metrics = end_to_end () in
    let n = List.length es in
    List.iteri (fun i e -> check_entry ~metrics ~last:(i = n - 1) i e) es
  | _ -> Alcotest.fail "entries: a non-empty list expected"

let () =
  Alcotest.run "trajectory"
    [ ("bench-perfbench", [ Alcotest.test_case "schema" `Quick test_schema ]) ]
