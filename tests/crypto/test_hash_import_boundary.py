"""Import boundary: the product path hashes on the stdlib, never on the references.

``repro.crypto.hashes`` and ``repro.crypto.mac`` hold the from-scratch
SHA-256 and HMAC-SHA256, kept as byte-parity references.  Product code takes
``sha256`` and ``hmac_sha256`` from ``repro.crypto.fasthash``; this test reads
every module under ``src/repro`` with :mod:`ast` and fails on any other
source of those two names.
"""

import ast
from pathlib import Path

import repro.crypto
from repro.crypto import fasthash

SRC = Path(__file__).resolve().parents[2] / "src"
REFERENCE_MODULES = {"repro.crypto.hashes", "repro.crypto.mac"}
HASH_NAMES = {"sha256", "hmac_sha256"}
ALLOWED = {
    Path("repro/crypto/hashes.py"),
    Path("repro/crypto/mac.py"),
    Path("repro/crypto/fasthash.py"),
}


def _module_name(relative: Path) -> str:
    parts = relative.with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_from(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The absolute module an ``ImportFrom`` reads, resolving relative levels."""
    if not node.level:
        return node.module or ""
    base = module.split(".")
    base = base[: len(base) - node.level + (1 if is_package else 0)]
    return ".".join(base + ([node.module] if node.module else []))


def reference_hash_uses(relative: Path, tree: ast.AST) -> list:
    """``line: text`` of every way ``tree`` reaches a from-scratch hash."""
    module = _module_name(relative)
    is_package = relative.name == "__init__.py"
    aliases = set()
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _imported_from(node, module, is_package)
            for alias in node.names:
                if source in REFERENCE_MODULES and alias.name in HASH_NAMES | {"*"}:
                    uses.append(f"{node.lineno}: from {source} import {alias.name}")
                elif f"{source}.{alias.name}" in REFERENCE_MODULES:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in REFERENCE_MODULES and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in HASH_NAMES:
            dotted = ast.unparse(node.value)
            if dotted in aliases or dotted in REFERENCE_MODULES:
                uses.append(f"{node.lineno}: {dotted}.{node.attr}")
    return uses


def test_product_modules_take_hashes_from_the_stdlib_module():
    offenders = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative in ALLOWED:
            continue
        uses = reference_hash_uses(relative, ast.parse(path.read_text(), str(path)))
        if uses:
            offenders[str(relative)] = uses
    assert offenders == {}


def test_the_checker_sees_every_spelling_of_a_reference_import():
    source = (
        "from repro.crypto.hashes import sha256\n"
        "from .mac import hmac_sha256 as mac\n"
        "from repro.crypto import hashes\n"
        "import repro.crypto.mac as reference\n"
        "hashes.sha256(b'')\n"
        "reference.hmac_sha256(b'k', b'm')\n"
        "from repro.crypto.mac import compute_mac\n"
        "from repro.crypto.fasthash import sha256\n"
    )
    uses = reference_hash_uses(Path("repro/crypto/example.py"), ast.parse(source))
    assert [use.split(":")[0] for use in uses] == ["1", "2", "5", "6"]


def test_package_exports_are_the_stdlib_backed_functions():
    assert repro.crypto.sha256 is fasthash.sha256
    assert repro.crypto.hmac_sha256 is fasthash.hmac_sha256
