(* The benchmark's own tests: its statistics, its seeded inputs, the
   service backlog and rate rules, and the output digest check. *)

open Perfbench_lib

let flt = Alcotest.float 0.0

let test_percentiles () =
  let p xs q = Stats.percentile (Array.of_list xs) q in
  Alcotest.check flt "one sample p50" 7.0 (p [ 7.0 ] 50.0);
  Alcotest.check flt "one sample p99" 7.0 (p [ 7.0 ] 99.0);
  Alcotest.check flt "p50 of 4 is rank 2" 2.0 (p [ 4.0; 1.0; 3.0; 2.0 ] 50.0);
  Alcotest.check flt "p25 of 4 is rank 1" 1.0 (p [ 4.0; 1.0; 3.0; 2.0 ] 25.0);
  Alcotest.check flt "p99 of 4 is the max" 4.0 (p [ 4.0; 1.0; 3.0; 2.0 ] 99.0);
  Alcotest.check flt "p50 of 3 is the middle" 2.0 (p [ 3.0; 1.0; 2.0 ] 50.0);
  (* nearest rank never interpolates: p99 of 100 is the 99th value *)
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check flt "p99 of 100" 99.0 (p xs 99.0);
  Alcotest.check flt "p50 of 100" 50.0 (p xs 50.0)

let test_self_time () =
  let sp name t0 t1 = { Stats.name; tid = 0; t0; t1 } in
  let spans =
    [ sp "child" 1.0 2.0; sp "child" 3.0 3.5; sp "parent" 0.0 5.0;
      sp "other" 0.5 1.5 |> fun s -> { s with Stats.tid = 1 } ]
  in
  Alcotest.check flt "parent self" 3.5 (Stats.self_time_by_name spans "parent");
  Alcotest.check flt "children self" 1.5 (Stats.self_time_by_name spans "child");
  Alcotest.check flt "other track untouched" 1.0
    (Stats.self_time_by_name spans "other")

let pairs_text pairs =
  String.concat "\n"
    (Array.to_list (Array.map (fun (q, r) -> q ^ " " ^ r) pairs))

let schedule_text ~seed =
  let u = Inputs.serve_universe seed in
  String.concat "\n"
    (List.concat_map
       (fun phase ->
         Array.to_list
           (Array.mapi
              (fun j k -> Inputs.request_line ~id:(string_of_int j) u.(k))
              (Inputs.phase_keys ~seed ~phase 500)))
       [ 0; 1; 2; 3 ])

let test_seeded_inputs () =
  let same name a b = Alcotest.(check bool) name true (String.equal a b) in
  let differ name a b = Alcotest.(check bool) name false (String.equal a b) in
  same "short-reads" (pairs_text (Inputs.short_pairs 5)) (pairs_text (Inputs.short_pairs 5));
  same "long-reads" (pairs_text (Inputs.long_pairs 5)) (pairs_text (Inputs.long_pairs 5));
  same "serve schedule" (schedule_text ~seed:5) (schedule_text ~seed:5);
  differ "short-reads seed" (pairs_text (Inputs.short_pairs 5)) (pairs_text (Inputs.short_pairs 6));
  differ "serve seed" (schedule_text ~seed:5) (schedule_text ~seed:6);
  Alcotest.(check int) "short count" Inputs.short_count
    (Array.length (Inputs.short_pairs 5))

let test_backlog_rule () =
  let g = Stats.backlog_growing in
  Alcotest.(check bool) "flat" false (g (Array.make 60 40));
  Alcotest.(check bool) "linear growth" true (g (Array.init 60 (fun i -> 5 * i)));
  Alcotest.(check bool) "batch-fill sawtooth" false
    (g (Array.init 60 (fun i -> 30 * (i mod 7))));
  Alcotest.(check bool) "small queue under the slack" false
    (g (Array.init 60 (fun i -> if i < 40 then 0 else 8)));
  Alcotest.(check bool) "too few samples" false (g [| 0; 100 |]);
  let o rate p99_ms ?(all_ok = true) ?(growing = false) () =
    { Stats.rate; p99_ms; all_ok; growing }
  in
  Alcotest.check flt "highest rate meeting the limit" 300.0
    (Stats.max_rate ~limit_ms:100.0
       [ o 100.0 20.0 (); o 300.0 90.0 (); o 600.0 150.0 () ]);
  Alcotest.check flt "growing backlog disqualifies" 100.0
    (Stats.max_rate ~limit_ms:100.0
       [ o 100.0 20.0 (); o 300.0 90.0 ~growing:true () ]);
  Alcotest.check flt "a failure disqualifies" 0.0
    (Stats.max_rate ~limit_ms:100.0 [ o 100.0 20.0 ~all_ok:false () ]);
  Alcotest.check flt "none met reads 0" 0.0
    (Stats.max_rate ~limit_ms:100.0 [ o 100.0 3000.0 () ])

let test_digest () =
  let a = Expected.digest [ (10, "5M"); (-3, "2M1I2M") ] in
  Alcotest.(check string) "stable" a (Expected.digest [ (10, "5M"); (-3, "2M1I2M") ]);
  Alcotest.(check bool) "cigar matters" false
    (a = Expected.digest [ (10, "5M"); (-3, "2M1D2M") ]);
  Alcotest.(check bool) "order matters" false
    (a = Expected.digest [ (-3, "2M1I2M"); (10, "5M") ]);
  let c = Expected.load_canary ~file:"expected.json" "short-reads" in
  let digest, seq_cycles, overlapped_cycles = Batchwl.canary Batchwl.short_reads c in
  Alcotest.(check (list string)) "canary matches the recorded values" []
    (Expected.canary_mismatches c ~digest ~seq_cycles ~overlapped_cycles);
  Alcotest.(check int) "a wrong cycle total is named" 1
    (List.length
       (Expected.canary_mismatches c ~digest ~seq_cycles:(seq_cycles + 1)
          ~overlapped_cycles))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
      ("inputs", [ Alcotest.test_case "seeded inputs" `Quick test_seeded_inputs ]);
      ("serve", [ Alcotest.test_case "backlog and max rate" `Quick test_backlog_rule ]);
      ("check", [ Alcotest.test_case "digest and canary" `Quick test_digest ]);
    ]
