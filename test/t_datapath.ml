(* Symbolic datapath tests: every kernel's IR cell evaluates
   bit-identically under the interpreter's boxed closure and the
   compiled program the engines run (the reproduction's C-sim vs RTL
   co-sim check), validates structurally, and its operator counts agree
   with the declared resource traits to within 2x. *)
open Dphls_core
module Datapath = Dphls_core.Datapath

let qtest = QCheck_alcotest.to_alcotest

let equivalence_prop id =
  QCheck.Test.make
    ~name:(Printf.sprintf "kernel #%d datapath == closure" id)
    ~count:25
    QCheck.(int_range 4 48)
    (fun len ->
      let e = Dphls_kernels.Catalog.find id in
      let rng = Dphls_util.Rng.create ((id * 71) + len) in
      let w = e.Dphls_kernels.Catalog.gen rng ~len in
      let (Registry.Packed (k, p)) = e.packed in
      let compiled = Dphls_reference.Ref_engine.run k p w in
      let interpreted = Dphls_reference.Ref_engine.run (Kernel.boxed k) p w in
      Result.equal_alignment compiled interpreted)

let equivalence_tests =
  List.map (fun id -> qtest (equivalence_prop id)) Dphls_kernels.Catalog.ids

let test_all_validate () =
  List.iter
    (fun id ->
      let cell, _ = Dphls_kernels.Datapaths.cell_for id in
      let e = Dphls_kernels.Catalog.find id in
      Datapath.validate cell ~n_layers:(Registry.n_layers e.packed))
    Dphls_kernels.Catalog.ids

let test_tb_widths_match_kernels () =
  List.iter
    (fun id ->
      let cell, _ = Dphls_kernels.Datapaths.cell_for id in
      let e = Dphls_kernels.Catalog.find id in
      let dsl_bits =
        List.fold_left (fun acc f -> acc + f.Datapath.bits) 0 cell.Datapath.tb_fields
      in
      Alcotest.(check int)
        (Printf.sprintf "kernel #%d pointer width" id)
        (Registry.tb_bits e.packed) dsl_bits)
    Dphls_kernels.Catalog.ids

let test_counts_cross_check_traits () =
  List.iter
    (fun id ->
      let cell, _ = Dphls_kernels.Datapaths.cell_for id in
      let e = Dphls_kernels.Catalog.find id in
      let traits = Registry.traits e.packed in
      let c = Datapath.count cell in
      (* declared traits may fold constant additions into DSP cascades
         (e.g. #8) or spend DSPs on adder chains (#9), so the check is a
         consistency band, not equality *)
      Alcotest.(check bool)
        (Printf.sprintf "#%d adders %d ~ trait %d" id c.Datapath.adders
           traits.Traits.adds_per_pe)
        true
        (c.Datapath.adders >= 1
        && c.Datapath.adders <= (4 * traits.Traits.adds_per_pe) + 4
        && traits.Traits.adds_per_pe <= 4 * c.Datapath.adders);
      Alcotest.(check bool)
        (Printf.sprintf "#%d multipliers %d ~ trait %d" id c.Datapath.multipliers
           traits.Traits.muls_per_pe)
        true
        (c.Datapath.multipliers <= (2 * traits.Traits.muls_per_pe) + 2))
    Dphls_kernels.Catalog.ids

let test_eval_guards () =
  let bad = { Datapath.layers = [| Datapath.Param "nope" |]; tb_fields = [] } in
  let pe = Datapath.eval bad { Datapath.params = []; tables = [] } in
  let input =
    {
      Pe.up = [| 0 |]; diag = [| 0 |]; left = [| 0 |];
      qry = [| 0 |]; rf = [| 0 |]; row = 0; col = 0;
    }
  in
  Alcotest.(check bool) "unbound param raises" true
    (try ignore (pe input); false with Invalid_argument _ -> true)

let test_validate_guards () =
  let cur_in_gap_layer =
    { Datapath.layers = [| Datapath.Const 0; Datapath.Cur 2; Datapath.Const 0 |];
      tb_fields = [] }
  in
  Alcotest.(check bool) "Cur in gap layer rejected" true
    (try Datapath.validate cur_in_gap_layer ~n_layers:3; false
     with Invalid_argument _ -> true);
  let bad_layer = { Datapath.layers = [| Datapath.Up 5 |]; tb_fields = [] } in
  Alcotest.(check bool) "layer out of range rejected" true
    (try Datapath.validate bad_layer ~n_layers:1; false
     with Invalid_argument _ -> true)

let test_select_first_best_semantics () =
  (* mirror Kdefs.best_of on concrete candidate values *)
  let mk values =
    let cands = List.mapi (fun i v -> (Datapath.Const v, i)) values in
    let expr =
      Dphls_kernels.Datapaths.select_first_best ~objective:Dphls_util.Score.Maximize
        cands
    in
    let pe =
      Datapath.eval
        { Datapath.layers = [| Datapath.Const 0 |]; tb_fields = [ { bits = 4; value = expr } ] }
        { Datapath.params = []; tables = [] }
    in
    let input =
      { Pe.up = [| 0 |]; diag = [| 0 |]; left = [| 0 |]; qry = [| 0 |]; rf = [| 0 |];
        row = 0; col = 0 }
    in
    (pe input).Pe.tb
  in
  Alcotest.(check int) "first wins ties" 0 (mk [ 5; 5; 5 ]);
  Alcotest.(check int) "strictly better later wins" 2 (mk [ 1; 2; 3 ]);
  Alcotest.(check int) "middle winner" 1 (mk [ 1; 7; 7 ]);
  Alcotest.(check int) "first max wins" 0 (mk [ 9; 7; 9 ])

let suite =
  equivalence_tests
  @ [
      Alcotest.test_case "all datapaths validate" `Quick test_all_validate;
      Alcotest.test_case "pointer widths match" `Quick test_tb_widths_match_kernels;
      Alcotest.test_case "counts cross-check traits" `Quick test_counts_cross_check_traits;
      Alcotest.test_case "eval guards" `Quick test_eval_guards;
      Alcotest.test_case "validate guards" `Quick test_validate_guards;
      Alcotest.test_case "select_first_best semantics" `Quick
        test_select_first_best_semantics;
    ]
