(* The layered benchmark: serve, analyze and design workloads, end-to-end
   metrics from untraced runs and per-layer metrics from traced ones.
   Usage and the metric glossary: bench/perf/README.md. *)

let workloads =
  [
    ("serve_churn", Serve_wl.run Serve_wl.churn);
    ("serve_probe", Serve_wl.run Serve_wl.probe);
    ("analyze_exact", Analyze_wl.run);
    ("design_region", Design_wl.run);
  ]

let usage =
  "perf.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]\n\
  \         [--spans FILE] [--repeat K] [--quick] [--hsched PATH]\n\
  \         [--workdir DIR]\n\
   workloads: serve_churn serve_probe analyze_exact design_region \
   (default: all)"

let die msg =
  prerr_endline ("perf: " ^ msg);
  prerr_endline usage;
  exit 2

(* The commit the checkout was made from, when it is a git work tree. *)
let git_rev () =
  let read path =
    try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
    with Sys_error _ -> None
  in
  let packed ref_ =
    Option.bind (read ".git/packed-refs") (fun refs ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ rev; r ] when r = ref_ -> Some rev
            | _ -> None)
          (String.split_on_char '\n' refs))
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head ->
      let ref_ = String.sub head 5 (String.length head - 5) in
      Option.value ~default:"unknown"
        (match read (Filename.concat ".git" ref_) with
        | Some rev -> Some rev
        | None -> packed ref_)
  | Some rev -> rev

let print_run name (ctx : Run.ctx) (r : Run.t) =
  Printf.printf "== %s  seed=%d  trace=%b ==\n" name ctx.seed ctx.trace;
  Printf.printf "  %s\n"
    (String.concat "  " (List.rev_map (fun (k, v) -> k ^ "=" ^ v) r.info));
  List.iter
    (fun (m, v, u) -> Printf.printf "  %-28s %14.4f %s\n" m v u)
    (Run.metrics r);
  List.iter print_endline r.table;
  if ctx.trace then Printf.printf "  spans written to %s\n" ctx.spans;
  Printf.printf "  attempted=%d failed=%d\n" r.attempted r.failed;
  List.iter (Printf.printf "  FAILED: %s\n") (List.rev r.notes);
  flush stdout

(* One workload, [repeat] times with consecutive seeds: per metric, the
   median over the runs, printed with its quartiles and relative spread
   (Q3 - Q1) / median when there are several. *)
let run_workload ~base name ~repeat ~spans =
  let runs =
    List.init repeat (fun k ->
        let ctx =
          {
            base with
            Run.seed = base.Run.seed + k;
            spans =
              Option.value spans
                ~default:
                  (Filename.concat base.workdir
                     (Printf.sprintf "%s-%d.spans.jsonl" name k));
          }
        in
        let r =
          try
            Fun.protect ~finally:Calib.stop_helper (fun () ->
                List.assoc name workloads ctx)
          with e ->
            prerr_endline
              (Printf.sprintf "perf: %s raised %s" name (Printexc.to_string e));
            exit 2
        in
        print_run name ctx r;
        r)
  in
  let metrics =
    List.map
      (fun (m, _, u) ->
        let vs =
          List.map
            (fun r ->
              let _, v, _ =
                List.find (fun (m', _, _) -> m' = m) (Run.metrics r)
              in
              v)
            runs
        in
        let q1, med, q3 = Summary.quartiles vs in
        if repeat > 1 then
          Printf.printf
            "  %-28s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.2f%% %s\n" m
            med q1 q3
            (if med = 0. then 0. else 100. *. (q3 -. q1) /. Float.abs med)
            u;
        (m, med, u))
      (Run.metrics (List.hd runs))
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  (name, sum (fun r -> r.Run.attempted), sum (fun r -> r.Run.failed), metrics)

let () =
  let names = ref [] and seed = ref 1 and seconds = ref 15. in
  let trace = ref false and spans = ref None and repeat = ref 1 in
  let quick = ref false and workdir = ref "_perf" in
  let hsched = ref "_build/default/bin/hsched_cli.exe" in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die (flag ^ " expects an integer")
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        if not (List.mem_assoc v workloads) then die ("unknown workload " ^ v);
        names := !names @ [ v ];
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> die "--seconds expects a positive number");
        parse rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> die "--trace expects 0 or 1");
        parse rest
    | "--spans" :: v :: rest ->
        spans := Some v;
        parse rest
    | "--repeat" :: v :: rest ->
        repeat := int_arg "--repeat" v;
        if !repeat < 1 then die "--repeat expects at least 1";
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--hsched" :: v :: rest ->
        hsched := v;
        parse rest
    | "--workdir" :: v :: rest ->
        workdir := v;
        parse rest
    | ("-h" | "--help") :: _ ->
        print_endline usage;
        exit 0
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let names = if !names = [] then List.map fst workloads else !names in
  if not (Sys.file_exists !hsched) then
    die
      (!hsched
     ^ " not found: build it with `dune build bin/hsched_cli.exe` or pass \
        --hsched");
  if not (Sys.file_exists !workdir) then Sys.mkdir !workdir 0o755;
  (* A benchmark run must not die on a server that closed mid-write. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Printf.printf
    "# hsched perf: rev=%s nproc=%d ocaml=%s seed=%d seconds=%g repeat=%d \
     quick=%b\n"
    (git_rev ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !seed !seconds !repeat !quick;
  let base =
    {
      Run.seed = !seed;
      seconds = !seconds;
      quick = !quick;
      trace = !trace;
      spans = "";
      hsched = !hsched;
      workdir = !workdir;
    }
  in
  (* An explicit span file holds one run's spans. *)
  let spans = if List.length names = 1 && !repeat = 1 then !spans else None in
  let results =
    List.map (fun name -> run_workload ~base name ~repeat:!repeat ~spans) names
  in
  let attempted = List.fold_left (fun acc (_, a, _, _) -> acc + a) 0 results in
  let failed = List.fold_left (fun acc (_, _, f, _) -> acc + f) 0 results in
  let finite = ref true in
  let fields =
    List.concat_map
      (fun (name, _, _, metrics) ->
        List.map
          (fun (m, v, u) ->
            if not (Float.is_finite v) then finite := false;
            let key = if List.length results = 1 then m else name ^ "." ^ m in
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" key
              (if Float.is_finite v then v else 0.)
              u)
          metrics)
      results
  in
  let failed = if !finite then failed else failed + 1 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) (max 1 attempted) failed
    (String.concat ", " fields);
  exit (if failed = 0 then 0 else 1)
