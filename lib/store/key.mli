(** Content-addressed cache keys.

    A key is the SHA-256 (lowercase hex) of a {e key material} string:
    the store's code-version stamp concatenated with a caller-supplied
    canonical description of the computation. Equal material ⇒ equal
    key; the SHA-256 collision resistance makes the converse safe to
    assume, so keys can name files directly.

    SHA-256 is implemented here (FIPS 180-4) because the toolchain
    ships no SHA digest — [Digest] is MD5, which is both truncatable
    and collision-broken, unacceptable for a content address. *)

type t = private string
(** 64 lowercase hex characters. *)

val code_version : string
(** Stamp mixed into every key, e.g. ["dcecc-store/1"]. Bump the
    trailing integer whenever simulation semantics change in a way
    that must invalidate previously stored results. *)

val of_material : string -> t
(** [of_material m] hashes [code_version ^ "\n" ^ m]. *)

val of_scenario : Simnet.Scenario.t -> t
(** Key for a full scenario run:
    [of_material ("scenario@v1\n" ^ Scenario.encode s)]. Raises
    [Invalid_argument] on invalid scenarios (encode validates). *)

val to_hex : t -> string
val of_hex : string -> t option
(** Accepts exactly 64 lowercase hex characters. *)

val sha256_hex : string -> string
(** The raw digest primitive, exposed for tests against the FIPS
    vectors and for the cache's body-integrity check. *)

type ctx
(** Streaming digest state: absorb input incrementally with {!feed},
    close with {!final}. [sha256_hex s] = [init] + one [feed] + [final]. *)

val init : unit -> ctx

val feed : ctx -> string -> unit
(** Absorb the whole string. Chunk boundaries do not affect the digest:
    feeding a string in any split yields the digest of the
    concatenation. *)

val final : ctx -> string
(** Close the stream and return the digest (64 lowercase hex chars).
    The context must not be fed again afterwards. *)
