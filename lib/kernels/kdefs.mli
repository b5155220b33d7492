(** Shared building blocks for the 15 kernel definitions: pointer
    encodings, traceback FSM constructors, and selection helpers.

    Pointer encodings follow the paper's bit budgets exactly:
    - linear kernels store 2-bit pointers (diag/up/left/end);
    - affine kernels store 4-bit pointers (2 bits for H's source plus one
      extension bit each for the D and I layers);
    - two-piece affine kernels store 7-bit pointers (3 source bits plus
      four extension bits). *)

open Dphls_core

(** 2-bit linear pointers. *)
module Linear : sig
  val ptr_diag : int
  val ptr_up : int
  val ptr_left : int
  val ptr_end : int

  val fsm : Traceback.fsm
  (** Single-state FSM: pointer directly encodes the move; [ptr_end]
      stops (used by local kernels). *)
end

(** 4-bit affine pointers; layer order H=0, D=1 (vertical/deletion),
    I=2 (horizontal/insertion). *)
module Affine : sig
  val src_diag : int
  val src_del : int
  val src_ins : int
  val src_end : int

  val encode : h_src:int -> d_ext:bool -> i_ext:bool -> int
  val fsm : Traceback.fsm
  (** States: 0 = walking H, 1 = walking D, 2 = walking I. *)
end

(** 7-bit two-piece affine pointers; layers H=0, D1=1, I1=2, D2=3, I2=4. *)
module Two_piece : sig
  val src_diag : int
  val src_d1 : int
  val src_i1 : int
  val src_d2 : int
  val src_i2 : int
  val src_end : int

  val encode :
    h_src:int -> d1_ext:bool -> i1_ext:bool -> d2_ext:bool -> i2_ext:bool -> int

  val fsm : Traceback.fsm
end

val best2 : Dphls_util.Score.objective -> Types.score * int -> Types.score * int
  -> Types.score * int
(** Pick the better (score, tag) pair; the first argument wins ties, so
    listing candidates in preference order fixes the tie-break. *)

val best_of : Dphls_util.Score.objective -> (Types.score * int) list
  -> Types.score * int
(** Fold of {!best2} over a non-empty preference-ordered candidate list. *)

val dna_char_bits : int
