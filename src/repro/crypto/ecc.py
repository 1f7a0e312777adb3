"""Elliptic-curve cryptography over NIST P-256: ECDSA signatures and ECDH.

The ShEF chain of trust needs asymmetric primitives in three places:

* the Manufacturer's *device key* signs the Security Kernel measurement,
* the derived *Attestation Key* signs attestation reports and the session key,
* the Security Kernel and IP Vendor run a Diffie-Hellman key exchange
  (``DHKE(VerifKey, AttestKey)`` in Figure 3) to agree on a ``SessionKey``.

ECDSA/ECDH over P-256 covers all three and is fast enough in pure Python for
full protocol runs inside the test suite (scalar multiplication uses Jacobian
coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.drbg import HmacDrbg
from repro.crypto.fasthash import sha256
from repro.crypto.kdf import hkdf
from repro.errors import InvalidKeyError, SignatureError

# NIST P-256 (secp256r1) domain parameters.
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


def _inverse_mod(value: int, modulus: int) -> int:
    """Modular inverse via Python's built-in extended-gcd pow."""
    return pow(value, -1, modulus)


@dataclass(frozen=True)
class Point:
    """An affine point on P-256; ``None`` coordinates encode the point at infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        """Uncompressed SEC1 encoding (0x04 || X || Y)."""
        if self.is_infinity:
            return b"\x00"
        return b"\x04" + self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    @staticmethod
    def decode(data: bytes) -> "Point":
        """Decode an uncompressed SEC1 point, validating that it is on the curve."""
        if data == b"\x00":
            return INFINITY
        if len(data) != 65 or data[0] != 0x04:
            raise InvalidKeyError("invalid P-256 point encoding")
        x = int.from_bytes(data[1:33], "big")
        y = int.from_bytes(data[33:], "big")
        point = Point(x, y)
        if not is_on_curve(point):
            raise InvalidKeyError("point is not on the P-256 curve")
        return point


INFINITY = Point(None, None)
GENERATOR = Point(GX, GY)


def is_on_curve(point: Point) -> bool:
    """Return True if ``point`` satisfies the curve equation (or is infinity)."""
    if point.is_infinity:
        return True
    return (point.y * point.y - (point.x ** 3 + A * point.x + B)) % P == 0


# ---------------------------------------------------------------------------
# Point arithmetic in Jacobian coordinates for speed.
# ---------------------------------------------------------------------------


def _to_jacobian(point: Point) -> tuple[int, int, int]:
    if point.is_infinity:
        return (0, 1, 0)
    return (point.x, point.y, 1)


def _from_jacobian(jac: tuple[int, int, int]) -> Point:
    x, y, z = jac
    if z == 0:
        return INFINITY
    z_inv = _inverse_mod(z, P)
    z_inv2 = (z_inv * z_inv) % P
    return Point((x * z_inv2) % P, (y * z_inv2 * z_inv) % P)


def _jacobian_double(jac: tuple[int, int, int]) -> tuple[int, int, int]:
    x, y, z = jac
    if z == 0 or y == 0:
        return (0, 1, 0)
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    m = (3 * x * x + A * z ** 4) % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y * z) % P
    return (nx, ny, nz)


def _jacobian_add(
    p: tuple[int, int, int], q: tuple[int, int, int]
) -> tuple[int, int, int]:
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = (z1 * z1) % P
    z2z2 = (z2 * z2) % P
    u1 = (x1 * z2z2) % P
    u2 = (x2 * z1z1) % P
    s1 = (y1 * z2 * z2z2) % P
    s2 = (y2 * z1 * z1z1) % P
    if u1 == u2:
        if s1 != s2:
            return (0, 1, 0)
        return _jacobian_double(p)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    h2 = (h * h) % P
    h3 = (h * h2) % P
    u1h2 = (u1 * h2) % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - s1 * h3) % P
    nz = (h * z1 * z2) % P
    return (nx, ny, nz)


def point_add(p: Point, q: Point) -> Point:
    """Add two affine points."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p), _to_jacobian(q)))


def scalar_multiply(scalar: int, point: Point) -> Point:
    """Compute ``scalar * point`` with double-and-add in Jacobian coordinates."""
    scalar %= N
    if scalar == 0 or point.is_infinity:
        return INFINITY
    result = (0, 1, 0)
    addend = _to_jacobian(point)
    while scalar:
        if scalar & 1:
            result = _jacobian_add(result, addend)
        addend = _jacobian_double(addend)
        scalar >>= 1
    return _from_jacobian(result)


# ---------------------------------------------------------------------------
# Key pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EcPublicKey:
    """A P-256 public key (a curve point)."""

    point: Point

    def encode(self) -> bytes:
        return self.point.encode()

    @staticmethod
    def decode(data: bytes) -> "EcPublicKey":
        return EcPublicKey(Point.decode(data))

    def fingerprint(self) -> bytes:
        """SHA-256 of the encoded key; used as a stable identifier in certificates."""
        return sha256(self.encode())


@dataclass(frozen=True)
class EcPrivateKey:
    """A P-256 private key (a scalar) with its public counterpart."""

    scalar: int
    public_key: EcPublicKey

    def __repr__(self) -> str:  # Never print the private scalar.
        return f"EcPrivateKey(fingerprint={self.public_key.fingerprint().hex()[:16]})"

    @staticmethod
    def generate(rng: HmacDrbg) -> "EcPrivateKey":
        """Generate a key pair from the supplied deterministic RNG."""
        while True:
            scalar = rng.random_int(256) % N
            if 1 <= scalar < N:
                break
        return EcPrivateKey(scalar, EcPublicKey(scalar_multiply(scalar, GENERATOR)))

    @staticmethod
    def from_seed(seed: bytes, label: str = "ec-key") -> "EcPrivateKey":
        """Derive a key pair deterministically from seed material (key-ladder style)."""
        rng = HmacDrbg(seed, label.encode("utf-8"))
        return EcPrivateKey.generate(rng)


def generate_keypair(rng: HmacDrbg) -> EcPrivateKey:
    """Generate a fresh P-256 key pair."""
    return EcPrivateKey.generate(rng)


# ---------------------------------------------------------------------------
# ECDSA
# ---------------------------------------------------------------------------


def _deterministic_nonce(private_key: EcPrivateKey, digest: bytes) -> int:
    """RFC-6979-inspired deterministic nonce (keeps signatures reproducible)."""
    seed = private_key.scalar.to_bytes(32, "big") + digest
    rng = HmacDrbg(seed, b"ecdsa-nonce")
    while True:
        k = rng.random_int(256) % N
        if 1 <= k < N:
            return k


def ecdsa_sign(private_key: EcPrivateKey, message: bytes) -> bytes:
    """Sign ``message`` (hashed with SHA-256) and return a 64-byte (r || s) signature."""
    digest = sha256(message)
    z = int.from_bytes(digest, "big")
    while True:
        k = _deterministic_nonce(private_key, digest)
        point = scalar_multiply(k, GENERATOR)
        r = point.x % N
        if r == 0:
            digest = sha256(digest)
            continue
        s = (_inverse_mod(k, N) * (z + r * private_key.scalar)) % N
        if s == 0:
            digest = sha256(digest)
            continue
        return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def ecdsa_verify(public_key: EcPublicKey, message: bytes, signature: bytes) -> bool:
    """Return True if ``signature`` is a valid ECDSA signature on ``message``."""
    if len(signature) != 64:
        return False
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (1 <= r < N and 1 <= s < N):
        return False
    if not is_on_curve(public_key.point) or public_key.point.is_infinity:
        return False
    z = int.from_bytes(sha256(message), "big")
    w = _inverse_mod(s, N)
    u1 = (z * w) % N
    u2 = (r * w) % N
    point = _from_jacobian(
        _jacobian_add(
            _to_jacobian(scalar_multiply(u1, GENERATOR)),
            _to_jacobian(scalar_multiply(u2, public_key.point)),
        )
    )
    if point.is_infinity:
        return False
    return point.x % N == r


def ecdsa_verify_strict(
    public_key: EcPublicKey, message: bytes, signature: bytes
) -> None:
    """Like :func:`ecdsa_verify` but raises :class:`SignatureError` on failure."""
    if not ecdsa_verify(public_key, message, signature):
        raise SignatureError("ECDSA signature verification failed")


# ---------------------------------------------------------------------------
# ECDH (the DHKE step of the attestation protocol).
# ---------------------------------------------------------------------------


def ecdh_shared_secret(private_key: EcPrivateKey, peer_public: EcPublicKey) -> bytes:
    """Compute the raw ECDH shared secret (the x-coordinate of the shared point)."""
    if peer_public.point.is_infinity or not is_on_curve(peer_public.point):
        raise InvalidKeyError("peer public key is not a valid curve point")
    shared = scalar_multiply(private_key.scalar, peer_public.point)
    if shared.is_infinity:
        raise InvalidKeyError("ECDH produced the point at infinity")
    return shared.x.to_bytes(32, "big")


def derive_session_key(
    private_key: EcPrivateKey,
    peer_public: EcPublicKey,
    context: bytes = b"shef-session",
    length: int = 32,
) -> bytes:
    """ECDH followed by HKDF: the ``SessionKey`` computation of Figure 3."""
    return hkdf(ecdh_shared_secret(private_key, peer_public), length, info=context)
