(** Structural onion "cryptography".

    The paper's transport dynamics are independent of actual encryption,
    so real AES/ntor handshakes are substituted by a layer counter that
    preserves the *structure* of onion routing: the client wraps a relay
    cell in one layer per hop it must traverse; every relay peels
    exactly one layer; the cell's payload command becomes visible (i.e.
    deliverable) only at zero layers.  Mis-layered deliveries therefore
    fail loudly in tests instead of silently succeeding.

    Documented substitution (DESIGN.md): nstor also abstracts crypto
    cost away; at the simulated scale crypto CPU time is negligible
    compared to transmission and propagation delays. *)

val peel : Cell.t -> Cell.t
(** [peel cell] removes one layer.  Raises [Invalid_argument] if
    [cell] is not a RELAY cell or has no layers left. *)
