(* Reading saved runs: each file in a run directory is one run's stdout,
   whose record line (the JSON object with "provenance") is used.

   summary BENCHMARK.json DIR
     per workload and end-to-end metric: median, quartiles (as Python's
     statistics.quantiles(v, n=4)), spread = IQR / median, and whether
     the spread is below a third of the metric's bound; per-layer
     medians from traced runs. Prints a JSON object last.

   compare BENCHMARK.json DIR_A DIR_B
     per workload and end-to-end metric: each side's median and
     quartiles and a verdict under the metric's bound (A is the parent,
     B the change):
       worse      B's median is worse than A's by more than the bound;
       better     B wins at least 9 in 10 seed-paired runs and its
                  median beats A's by more than A's own spread;
       unresolved a side's spread exceeds the bound, unless every run of
                  B beats (or loses to) every run of A;
       unchanged  otherwise.
     Per-layer medians of traced runs are printed alongside. Exits 1 if
     any verdict is worse or unresolved. *)

module Json = Aqv_util.Json

type spec = { name : string; unit_ : string; lower_better : bool; bound : float }

let read_file p = In_channel.with_open_bin p In_channel.input_all

let member_exn k j =
  match Json.member k j with Some v -> v | None -> failwith ("missing field " ^ k)

let str k j = Option.get (Json.to_str (member_exn k j))
let num k j = Option.get (Json.to_float (member_exn k j))

let specs bench =
  let j = Json.parse_exn (read_file bench) in
  let e2e =
    List.map
      (fun m ->
        {
          name = str "name" m;
          unit_ = str "unit" m;
          lower_better = str "better" m = "lower";
          bound = num "bound" m;
        })
      (Option.get (Json.to_list (member_exn "end_to_end" j)))
  in
  let workloads =
    List.map (fun w -> str "name" w) (Option.get (Json.to_list (member_exn "workloads" j)))
  in
  (e2e, workloads)

(* Every record under [dir]: (workload, seed, traced, record). *)
let records dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         let lines = String.split_on_char '\n' (read_file (Filename.concat dir f)) in
         List.find_map
           (fun l ->
             match Json.parse l with
             | Ok j when Json.member "provenance" j <> None ->
               Some
                 ( str "workload" j,
                   Option.get (Json.to_int (member_exn "seed" j)),
                   Option.get (Json.to_bool (member_exn "trace" j)),
                   j )
             | _ -> None)
           lines)

let metric_value section name r =
  match Json.member section r with
  | Some s -> (
    match Json.member name s with
    | Some v -> Json.to_float (member_exn "value" v)
    | None -> None)
  | None -> None

(* (seed, value) of one metric over a set of records. *)
let values recs ~workload ~traced section name =
  List.filter_map
    (fun (w, seed, t, r) ->
      if w = workload && t = traced then Option.map (fun v -> (seed, v)) (metric_value section name r)
      else None)
    recs

let summarize vs =
  let a = Array.of_list (List.map snd vs) in
  let q1, q3 = Stat.quartiles a in
  let med = Stat.median a in
  (med, q1, q3, if med = 0. then Float.nan else (q3 -. q1) /. Float.abs med)

let per_layer_names recs =
  List.sort_uniq compare
    (List.concat_map
       (fun (_, _, t, r) ->
         if t then
           match Json.to_obj (member_exn "per_layer" r) with Some kv -> List.map fst kv | None -> []
         else [])
       recs)

let usage () =
  prerr_endline "usage: bench summary BENCHMARK.json DIR | bench compare BENCHMARK.json DIR_A DIR_B";
  2

let summary = function
  | [ bench; dir ] ->
    let e2e, workloads = specs bench in
    let recs = records dir in
    let steady = ref true in
    let out =
      List.map
        (fun wl ->
          Printf.printf "%s\n" wl;
          let metrics =
            List.filter_map
              (fun s ->
                match values recs ~workload:wl ~traced:false "e2e" s.name with
                | [] -> None
                | vs ->
                  let med, q1, q3, spread = summarize vs in
                  let ok = s.name = "setup_s" || spread < s.bound /. 3. in
                  if not ok then steady := false;
                  Printf.printf "  %-24s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (bound %.2f)%s\n"
                    s.name (List.length vs) med q1 q3 spread s.bound
                    (if ok then "" else "  > bound/3");
                  Some
                    ( s.name,
                      Json.Obj
                        [
                          ("median", Json.Float med);
                          ("q1", Json.Float q1);
                          ("q3", Json.Float q3);
                          ("iqr_over_median", Json.Float spread);
                          ("runs", Json.Int (List.length vs));
                        ] ))
              e2e
          in
          let hit =
            List.filter_map
              (fun (w, _, t, r) ->
                if w = wl && not t then
                  Json.to_float (member_exn "cache_hit_ratio" (member_exn "diagnostics" r))
                else None)
              recs
          in
          let layers =
            List.filter_map
              (fun name ->
                match values recs ~workload:wl ~traced:true "per_layer" name with
                | [] -> None
                | vs ->
                  let med, _, _, _ = summarize vs in
                  Printf.printf "  %-40s median %.6g (traced, n=%d)\n" name med (List.length vs);
                  Some (name, Json.Float med))
              (per_layer_names recs)
          in
          ( wl,
            Json.Obj
              ([ ("e2e", Json.Obj metrics) ]
              @ (if hit = [] then []
                 else [ ("cache_hit_ratio", Json.Float (Stat.median (Array.of_list hit))) ])
              @ if layers = [] then [] else [ ("per_layer", Json.Obj layers) ]) ))
        workloads
    in
    print_endline (Json.to_string (Json.Obj out));
    if !steady then 0 else 1
  | _ -> usage ()

let verdict s a b =
  let ma, _, _, spread_a = summarize a and mb, _, _, spread_b = summarize b in
  (* positive = B worse, as a share of A's median *)
  let worse_by = (if s.lower_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let beats x y = if s.lower_better then x < y else x > y in
  let all_b_better = List.for_all (fun (_, vb) -> List.for_all (fun (_, va) -> beats vb va) a) b in
  let all_b_worse = List.for_all (fun (_, vb) -> List.for_all (fun (_, va) -> beats va vb) a) b in
  let pairs = List.filter_map (fun (seed, vb) -> Option.map (fun va -> (va, vb)) (List.assoc_opt seed a)) b in
  let wins = List.length (List.filter (fun (va, vb) -> beats vb va) pairs) in
  if all_b_better && -.worse_by > spread_a then "better"
  else if all_b_worse && worse_by > s.bound then "worse"
  else if spread_a > s.bound || spread_b > s.bound then "unresolved"
  else if worse_by > s.bound then "worse"
  else if pairs <> [] && 10 * wins >= 9 * List.length pairs && -.worse_by > spread_a then "better"
  else "unchanged"

let compare = function
  | [ bench; dir_a; dir_b ] ->
    let e2e, workloads = specs bench in
    let ra = records dir_a and rb = records dir_b in
    let bad = ref 0 in
    List.iter
      (fun wl ->
        Printf.printf "%s\n" wl;
        List.iter
          (fun s ->
            match
              ( values ra ~workload:wl ~traced:false "e2e" s.name,
                values rb ~workload:wl ~traced:false "e2e" s.name )
            with
            | [], _ | _, [] -> ()
            | a, b ->
              let ma, qa1, qa3, _ = summarize a and mb, qb1, qb3, _ = summarize b in
              let v = verdict s a b in
              if v = "worse" || v = "unresolved" then incr bad;
              Printf.printf
                "  %-24s A %-11.6g [%-11.6g %-11.6g]  B %-11.6g [%-11.6g %-11.6g]  %+6.1f%%  %s\n"
                s.name ma qa1 qa3 mb qb1 qb3
                (100. *. (mb -. ma) /. Float.abs ma)
                v)
          e2e;
        List.iter
          (fun name ->
            match
              ( values ra ~workload:wl ~traced:true "per_layer" name,
                values rb ~workload:wl ~traced:true "per_layer" name )
            with
            | [], _ | _, [] -> ()
            | a, b ->
              let ma, _, _, _ = summarize a and mb, _, _, _ = summarize b in
              Printf.printf "    %-40s A %-11.6g B %-11.6g  delta %+.6g\n" name ma mb (mb -. ma))
          (per_layer_names (ra @ rb)))
      workloads;
    if !bad = 0 then 0 else 1
  | _ -> usage ()
