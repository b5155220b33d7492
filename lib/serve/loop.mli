(** The event loop behind [dphls serve]: one thread, one [Unix.select]
    over the listening socket (if any) and every open client
    connection, stdin/stdout counting as one connection.

    Each round (one {!step}):
    - reads at most one 64 KiB chunk from each readable connection into
      that connection's line buffer;
    - {!Server.submit}s every complete line, tagged with its
      connection;
    - calls {!Server.flush} once;
    - queues each response on the connection that sent the request and
      writes what the connection can take without blocking.

    Nothing stays queued in the server across a blocking [select], so a
    lone request is answered as soon as it is computed, and under load
    a batch is whatever arrived while the previous round computed
    (still capped by [batch_max]).

    Input is bounded per connection. A line longer than the server's
    [max_line_bytes] gets one [oversized] reply; the rest of it, up to
    the next newline, is read and dropped without being buffered, and
    the line after it is served normally. A connection whose unsent
    output passes [max_line_bytes] is not read from until its client
    takes some of it, so a client that never reads its replies holds at
    most that much of the server's memory and never stalls another
    client. *)

type t

val create : Server.t -> t
(** A loop with no connections yet. Ignores [SIGPIPE] for the process,
    so a write to a client that has gone fails with [EPIPE] and drops
    that client instead of killing the server. *)

val add : t -> ?out:Unix.file_descr -> Unix.file_descr -> unit
(** Serve one client that writes requests to the given descriptor and
    reads responses from [out] (default: the same descriptor, as for a
    socket). The loop closes both once the client's input has ended
    and its responses are written, or when a write fails. *)

val listen : t -> ?max_conns:int -> Unix.file_descr -> unit
(** Accept clients on a listening socket. After [max_conns] accepts
    ([0], the default, means no limit) the loop closes the socket and
    serves the connections it has until they end. *)

val step : t -> timeout:float -> bool
(** One round, waiting at most [timeout] seconds in [select] (negative:
    no limit). Returns [false] once there is nothing left to serve: no
    open connection and no listening socket. *)

val run : t -> unit
(** {!step} with no timeout until it returns [false]. *)

val line_high_water : t -> int
(** The most bytes of one partial line any connection's reader has
    held; never more than [max_line_bytes]. *)
