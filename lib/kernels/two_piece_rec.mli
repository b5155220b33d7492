(** Shared two-piece affine gap model (Minimap2's) for kernels #5 and
    #13, whose recurrence is [Cells.two_piece_cell]: two concurrent affine gap regimes per direction, five
    scoring layers (H=0, D1=1, I1=2, D2=3, I2=4), and the score of a gap
    is the better of the two regimes — short gaps favour the steep piece,
    long gaps the shallow one. *)

type gaps = {
  open1 : int;
  extend1 : int;  (** steep piece: cheap to open, expensive to extend *)
  open2 : int;
  extend2 : int;  (** shallow piece: expensive to open, cheap to extend *)
}

val init_border : gaps -> layer:int -> index:int -> Dphls_core.Types.score
(** Global border value at distance [index]: H is the better of the two
    whole-gap costs, gap layers are -inf. *)

val origin : layer:int -> Dphls_core.Types.score
