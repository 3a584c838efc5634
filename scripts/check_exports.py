#!/usr/bin/env python3
"""Export gate: every value a lib/ interface exports needs a caller.

For each `val` in lib/**/*.mli, nested signatures included
(`module Dense : sig ... end`), look for a caller outside the module's
own .ml/.mli in lib/, bin/, bench/, perfbench/ and test/. A caller is

  - a qualified reference `M.v` or `M.Sub.v` (library prefixes such as
    `Impact_ir.M.v` and local aliases `module A = Impact_ir.M` count);
  - a bare `v` in a file that opens `M` (`open M`, `let open M in`,
    `M.( ... )`), or `Sub.v` there for a nested value;
  - a nested module passed whole, e.g. `Hashtbl.Make (M.Sub)`, which
    uses every value of `Sub`.

An export whose callers are all under test/ must be listed in the
allowlist (scripts/exports_allow.txt) with a reason; an export with no
caller at all must go. The gate exits 1 on either, and on an allowlist
line that names no export or an export that now has a non-test caller.
It prints the count of test-only exports.

Usage: python3 scripts/check_exports.py [--root DIR]
"""

import argparse
import os
import re
import sys

CALLER_DIRS = ("lib", "bin", "bench", "perfbench", "test")
IDENT = r"[a-z_][A-Za-z0-9_']*"
QUOTED = re.compile(r"\{([a-z_]*)\|")
CHAR = re.compile(r"'(?:\\(?:[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}|.)|[^\\'\n])'")


def strip_comments(src):
    """Drop (nested) OCaml comments and the contents of string literals."""
    out, i, depth, n = [], 0, 0, len(src)
    while i < n:
        quoted, char = QUOTED.match(src, i), CHAR.match(src, i)
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif quoted and not depth:
            # {id|...|id}: no escapes inside.
            end = src.find("|" + quoted.group(1) + "}", i)
            out.append('""')
            i = n if end < 0 else end + len(quoted.group(1)) + 2
        elif src[i] == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            if not depth:
                out.append('""')
            i = j + 1
        elif char:
            # A character literal such as '"' must not open a string.
            if not depth:
                out.append("' '")
            i = char.end()
        else:
            if not depth:
                out.append(src[i])
            i += 1
    return "".join(out)


def module_of(path):
    name = os.path.splitext(os.path.basename(path))[0]
    return name[0].upper() + name[1:]


def exports(mli_src):
    """Yield (sub_path, name) for each val, sub_path naming nested modules."""
    tokens = re.finditer(
        r"\bmodule\s+([A-Z]\w*)\s*:\s*sig\b|\b(sig|object|struct)\b|\bend\b"
        r"|\bval\s+(" + IDENT + ")", strip_comments(mli_src))
    # A `sig` that is not a named module's (a module type's, say) holds
    # no exports of its own: it is pushed as None.
    stack = []
    for m in tokens:
        if m.group(1) or m.group(2):
            stack.append(m.group(1))
        elif m.group(3):
            if None not in stack:
                yield tuple(stack), m.group(3)
        elif stack:
            stack.pop()


def source_files(root):
    for d in CALLER_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(root, d)):
            dirnames[:] = [x for x in dirnames if not x.startswith(("_", "."))]
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


ALIAS = re.compile(r"\bmodule\s+([A-Z]\w*)\s*=\s*((?:[A-Z]\w*\.)*[A-Z]\w*)\s*$",
                   re.M)
OPEN = re.compile(r"\b(open!?|include)\s+((?:[A-Z]\w*\.)*[A-Z]\w*)"
                  r"|\b((?:[A-Z]\w*\.)*[A-Z]\w*)\.\(")


class Caller:
    """One source file's references, normalised to `M.Sub.v` paths."""

    def __init__(self, path, text, modules):
        self.path = path
        aliases = {}
        for m in ALIAS.finditer(text):
            aliases[m.group(1)] = ".".join(self._strip(m.group(2).split("."),
                                                       modules, {}))

        def norm(parts):
            parts = self._strip(parts, modules, aliases)
            return ".".join(aliases.get(parts[0], parts[0]).split(".")
                            + parts[1:])

        # Opens and includes; `include M.Sub` uses that module whole.
        self.opened, self.whole = set(), set()
        for m in OPEN.finditer(text):
            path = norm((m.group(2) or m.group(3)).split("."))
            (self.whole if m.group(1) == "include" else self.opened).add(path)
        # Every other qualified reference. One that ends in a nested
        # module (`Hashtbl.Make (M.Sub)`) uses that module whole.
        self.qualified = set()
        rest = OPEN.sub(" ", ALIAS.sub(" ", text))
        for m in re.finditer(r"\b((?:[A-Z]\w*\.)+)(" + IDENT + r"|[A-Z]\w*)",
                             rest):
            path = norm(m.group(1).split(".")[:-1] + [m.group(2)])
            self.qualified.add(path)
            if m.group(2)[0].isupper() and path.count(".") >= 1:
                self.whole.add(path)
        self.words = set(re.findall(r"\b" + IDENT, text))

    @staticmethod
    def _strip(parts, modules, aliases):
        """Drop library prefixes: `Impact_ir.Reg` is `Reg`."""
        while len(parts) > 1 and parts[0] not in modules \
                and parts[0] not in aliases:
            parts = parts[1:]
        return parts

    def calls(self, module, sub, name):
        full = [module, *sub]
        if ".".join(full + [name]) in self.qualified:
            return True
        for k in range(1, len(full) + 1):
            prefix = ".".join(full[:k])
            if prefix in self.whole:
                return True
            if prefix in self.opened:
                rest = full[k:]
                if not rest and name in self.words:
                    return True
                if rest and ".".join(rest + [name]) in self.qualified:
                    return True
        return False


def scan(root):
    mlis = sorted(p for p in source_files(root)
                  if p.startswith(os.path.join(root, "lib", "")) and p.endswith(".mli"))
    modules = {module_of(p) for p in mlis}
    texts = {}
    for p in source_files(root):
        with open(p, encoding="utf-8") as f:
            texts[p] = strip_comments(f.read())
    callers = [Caller(p, t, modules) for p, t in texts.items()]
    result = {}
    for mli in mlis:
        module = module_of(mli)
        own = {os.path.splitext(mli)[0] + ext for ext in (".ml", ".mli")}
        with open(mli, encoding="utf-8") as f:
            vals = list(exports(f.read()))
        for sub, name in vals:
            key = ".".join([module, *sub, name])
            where = set()
            for c in callers:
                if c.path in own or not c.calls(module, sub, name):
                    continue
                rel = os.path.relpath(c.path, root)
                where.add("test" if rel.startswith("test" + os.sep) else "src")
            result[key] = where
    return result


def read_allow(path):
    allow = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, reason = line.partition(" ")
            if not reason.strip():
                sys.exit(f"{path}:{lineno}: {key} has no reason")
            allow[key] = reason.strip()
    return allow


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=os.path.dirname(here))
    args = ap.parse_args()
    allow = read_allow(os.path.join(args.root, "scripts", "exports_allow.txt"))
    result = scan(args.root)
    errors = []
    for key, where in sorted(result.items()):
        if "src" in where:
            if key in allow:
                errors.append(f"{key}: allowlisted but has a non-test caller")
        elif key not in allow:
            what = "only tests call it" if where else "no caller"
            errors.append(f"{key}: {what}; delete it, make it internal, "
                          f"or allowlist it with a reason")
    for key in sorted(set(allow) - set(result)):
        errors.append(f"{key}: allowlisted but not exported")
    test_only = sum(1 for w in result.values() if w == {"test"})
    print(f"{len(result)} exported vals, {test_only} test-only "
          f"({len(allow)} allowlisted)")
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
