(* Catalog-id view of the kernels' own IR: each kXX module declares its
   cell and bindings once, in its [Kernel.pe] field. *)

open Dphls_core

let select_first_best = Cells.select_first_best

let cell_for id =
  let (Registry.Packed (k, p)) = (Catalog.find id).Catalog.packed in
  match Kernel.datapath k p with Some d -> d | None -> raise Not_found
