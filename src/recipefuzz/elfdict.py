"""Dictionary extraction from a binary's read-only data.

Scans an ELF image's .rodata section for maximal runs of printable ASCII,
deduplicates them with occurrence counts, and renders the result as an
AFL-style dictionary file (one `name="value"` entry per token). The same
inventory feeds the controller blackboard, so one extraction serves both
the proposal layer and the dictionary file.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from .recipe import decode_token, encode_token

SHT_PROGBITS = 1
SHF_WRITE = 0x1
SHF_ALLOC = 0x2

PRINTABLE_RUN = re.compile(rb"[\x20-\x7e]+")
DICT_LINE = re.compile(r'^(?P<name>[A-Za-z0-9_]+)="(?P<value>.*)"$')


class NotElf(ValueError):
    pass


class NoRodataSection(ValueError):
    pass


@dataclass(frozen=True)
class TokenInventory:
    """Deduplicated printable tokens with occurrence counts.

    Token order is first occurrence in the section, which keeps extraction
    deterministic; counts allow ranking by frequency.
    """

    tokens: dict[bytes, int]
    source: str
    min_len: int

    @property
    def unique_count(self) -> int:
        return len(self.tokens)

    @property
    def total_occurrences(self) -> int:
        return sum(self.tokens.values())

    def top(self, k: int) -> list[tuple[bytes, int]]:
        ranked = sorted(self.tokens.items(), key=lambda kv: -kv[1])
        return ranked[:k]


@dataclass(frozen=True)
class _Section:
    name: str
    sh_type: int
    flags: int
    offset: int
    size: int


def _parse_sections(binary: bytes) -> list[_Section]:
    if len(binary) < 16 or binary[:4] != b"\x7fELF":
        raise NotElf("missing ELF magic")
    ei_class = binary[4]
    ei_data = binary[5]
    if ei_class not in (1, 2) or ei_data not in (1, 2):
        raise NotElf(f"bad EI_CLASS/EI_DATA: {ei_class}/{ei_data}")
    end = "<" if ei_data == 1 else ">"

    try:
        if ei_class == 2:
            (e_shoff,) = struct.unpack_from(end + "Q", binary, 0x28)
            e_shentsize, e_shnum, e_shstrndx = struct.unpack_from(end + "HHH", binary, 0x3A)
            sh_fmt = end + "IIQQQQ"  # name, type, flags, addr, offset, size
        else:
            (e_shoff,) = struct.unpack_from(end + "I", binary, 0x20)
            e_shentsize, e_shnum, e_shstrndx = struct.unpack_from(end + "HHH", binary, 0x2E)
            sh_fmt = end + "IIIIII"
        raw = []
        for i in range(e_shnum):
            base = e_shoff + i * e_shentsize
            name_off, sh_type, flags, _addr, offset, size = struct.unpack_from(
                sh_fmt, binary, base
            )
            raw.append((name_off, sh_type, flags, offset, size))
        if not 0 <= e_shstrndx < len(raw):
            raise NotElf("bad section name table index")
        str_off, str_size = raw[e_shstrndx][3], raw[e_shstrndx][4]
        strtab = binary[str_off : str_off + str_size]
    except struct.error as exc:
        raise NotElf(f"truncated ELF image: {exc}") from None

    sections = []
    for name_off, sh_type, flags, offset, size in raw:
        nul = strtab.find(b"\x00", name_off)
        name = strtab[name_off : nul if nul >= 0 else None].decode("latin-1")
        sections.append(_Section(name, sh_type, flags, offset, size))
    return sections


def extract_strings(
    binary: bytes, min_len: int = 4, all_readonly: bool = False
) -> TokenInventory:
    """Extract the printable string-literal vocabulary from .rodata.

    Tokens are maximal printable-ASCII (0x20-0x7e) runs of at least
    min_len bytes, deduplicated with counts. With all_readonly, every
    allocated non-writable data section is scanned instead of .rodata
    alone.
    """
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    sections = _parse_sections(binary)
    if all_readonly:
        chosen = [
            s
            for s in sections
            if s.sh_type == SHT_PROGBITS
            and s.flags & SHF_ALLOC
            and not s.flags & SHF_WRITE
        ]
        source = "readonly-sections"
    else:
        chosen = [s for s in sections if s.name == ".rodata"]
        source = ".rodata"
    if not chosen:
        raise NoRodataSection(f"no {source} section in image")

    tokens: dict[bytes, int] = {}
    for sec in chosen:
        payload = binary[sec.offset : sec.offset + sec.size]
        for match in PRINTABLE_RUN.finditer(payload):
            run = match.group()
            if len(run) >= min_len:
                tokens[run] = tokens.get(run, 0) + 1
    return TokenInventory(tokens=tokens, source=source, min_len=min_len)


def write_dictionary(inventory: TokenInventory) -> str:
    """Render the inventory as dictionary text: token_NNNN="value" lines.

    Quote, backslash and (defensively) non-printable bytes are escaped as
    \\xNN so every line re-parses to its source token byte-for-byte.
    """
    lines = [
        f'token_{i:04d}="{encode_token(tok)}"'
        for i, tok in enumerate(inventory.tokens)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_dictionary(text: str) -> list[bytes]:
    """Read dictionary text back into token bytes (round-trip consumer)."""
    tokens = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = DICT_LINE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: not a name=\"value\" entry: {line!r}")
        tokens.append(decode_token(m.group("value")))
    return tokens


def format_inventory_report(
    inventory: TokenInventory, binary_size: int, top_k: int = 5
) -> str:
    """Key-value summary: binary size, unique token count, top tokens."""
    top = ", ".join(
        f"{tok.decode('ascii')} (x{count})" for tok, count in inventory.top(top_k)
    )
    lines = [
        f"binary_size       : {binary_size}",
        f"section           : {inventory.source}",
        f"min_len           : {inventory.min_len}",
        f"unique_tokens     : {inventory.unique_count}",
        f"total_occurrences : {inventory.total_occurrences}",
        f"top_tokens        : {top}",
    ]
    return "\n".join(lines) + "\n"
