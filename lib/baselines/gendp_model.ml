open Dphls_core

(* The datapath census gives the ALU-op count directly. *)
let instructions_per_cell (Registry.Packed (k, p) as packed) =
  match Kernel.datapath k p with
  | Some (cell, _) ->
    let c = Datapath.count cell in
    c.Datapath.adders + c.Datapath.multipliers + c.Datapath.comparators
    + c.Datapath.lookups
    + (if Registry.tb_bits packed > 0 then 1 else 0)
  | None ->
    let t = Registry.traits packed in
    t.Traits.adds_per_pe + t.Traits.muls_per_pe + t.Traits.cmps_per_pe

let effective_ii packed ~lanes =
  max 1 ((instructions_per_cell packed + lanes - 1) / lanes)

(* Programmability tax per PE, in fabric terms:
   - instruction memory: 64 x 32-bit words (LUTRAM),
   - decode + operand-select muxes,
   - a 16-entry register file. *)
let imem_luts = 64.0 *. 32.0 /. 4.0
let decode_luts = 220.0
let regfile_luts = 16.0 *. 16.0 /. 4.0
let regfile_ffs = 16.0 *. 16.0

let utilization packed ~n_pe ~max_qry ~max_ref =
  let cfg = { Dphls_resource.Estimate.n_pe; max_qry; max_ref } in
  let base = Dphls_resource.Estimate.block packed cfg in
  let fpe = float_of_int n_pe in
  {
    base with
    Dphls_resource.Device.lut =
      base.Dphls_resource.Device.lut
      +. (fpe *. (imem_luts +. decode_luts +. regfile_luts));
    ff = base.Dphls_resource.Device.ff +. (fpe *. regfile_ffs);
  }

let cycles packed ~n_pe ~lanes ~qry_len ~ref_len ~tb_steps =
  let ii = effective_ii packed ~lanes in
  let m =
    Rtl_model.cycles ~n_pe ~qry_len ~ref_len ~banding:(Registry.banding packed) ~ii
      ~tb_steps
  in
  m.Rtl_model.total
