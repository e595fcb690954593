#!/usr/bin/env python3
"""Documentation checks run by CI (docs-check job).

Invariants:
  1. Every page under docs/ is referenced (linked) from README.md, so
     the README docs index stays the complete entry point.
  2. Every relative markdown link in README.md, DESIGN.md,
     EXPERIMENTS.md, ROADMAP.md, and docs/*.md points at a file that
     exists (anchors are stripped; absolute URLs are ignored).
  3. Every public entry point of the poly-ops backend contract
     (src/fhe/PolyBackend.h: the PolyBackend virtual methods and the
     free selection functions) is mentioned by name in docs/kernels.md,
     so the backend contract documentation cannot silently fall behind
     the interface.
  4. Same for the memory-governance contract: every public entry point
     of src/support/ResourceGovernor.h (governor methods, GovernorStats
     helpers, the free parsing/naming functions) and of the rotation-key
     store (the public methods of RotationKeyCache in src/fhe/Keys.h) is
     mentioned by name in docs/memory.md.
  5. Same for the compiler's settings: every field of air::CompileOptions
     (src/air/Pass.h) is mentioned by name in docs/compiler.md. Finding
     no fields is itself a violation, so the rule cannot pass vacuously.
  6. The runtime settings table in docs/architecture.md lists exactly
     the ACE_* variables of the settings module's table
     (src/support/Env.cpp): one row per variable, none missing, none
     extra.
  7. Every ace_* entry declared in the C API headers (src/fhe/CApi.h,
     src/service/ServiceCApi.h) is named under tests/ or in the code
     emitter (src/codegen/CodeEmitter.cpp), so no entry outlives its
     last caller. Finding no entries is itself a violation, as in 5.

Exits nonzero listing every violation.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# [text](target) — excluding images and in-page/external targets.
LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def markdown_files():
    top = [ROOT / n for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                              "ROADMAP.md")]
    return [p for p in top if p.exists()] + sorted(
        (ROOT / "docs").glob("*.md"))


def check_links(path):
    errors = []
    for num, line in enumerate(path.read_text().splitlines(), 1):
        for target in LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (path.parent / target.split("#")[0]).resolve()
            if not resolved.exists():
                errors.append(f"{path.relative_to(ROOT)}:{num}: "
                              f"broken link -> {target}")
    return errors


GENERIC_NAMES = {"name"}  # too common to grep for meaningfully

# `virtual ... name(...)` methods and namespace-scope `... name(...);`
# free-function declarations in the backend header.
VIRTUAL_METHOD = re.compile(r"virtual\s+[\w:*&\s]+?(\w+)\s*\(")
FREE_FUNCTION = re.compile(r"^(?:const\s+)?[\w:&*]+\s+[&*]?(\w+)\s*\(",
                           re.MULTILINE)


def backend_entry_points():
    """Public names of the poly backend contract: the PolyBackend
    virtual methods plus the free selection functions declared after the
    class body."""
    header = (ROOT / "src/fhe/PolyBackend.h").read_text()
    names = set(VIRTUAL_METHOD.findall(header))
    after_class = header.split("};", 1)[1] if "};" in header else header
    names.update(m for m in FREE_FUNCTION.findall(after_class)
                 if m not in ("namespace", "endif", "include"))
    return sorted(names - GENERIC_NAMES)


def check_backend_doc():
    doc = ROOT / "docs/kernels.md"
    if not doc.exists():
        return ["docs/kernels.md: missing (the poly backend contract "
                "must be documented)"]
    text = doc.read_text()
    return [f"docs/kernels.md: backend entry point '{name}' from "
            "src/fhe/PolyBackend.h is not documented"
            for name in backend_entry_points() if name not in text]


def public_entry_points(header):
    """Public function and method names declared in \p header: members
    up to a class's `private:` and namespace-scope free functions."""
    names = set()
    access_public = True  # namespace scope; class bodies toggle it
    for line in header.splitlines():
        stripped = line.strip()
        if stripped == "private:":
            access_public = False
            continue
        # A class body ends at an unindented "};"; nested structs close
        # indented and keep the enclosing access.
        if stripped == "public:" or line.startswith("};"):
            access_public = True
            continue
        if not access_public:
            continue
        # Declarations sit at indent 0 (free functions) or 2 (members);
        # deeper lines are inline bodies.
        if not re.match(r"^(?:  )?\S", line):
            continue
        code = line.split("///")[0].split("//")[0]
        if stripped.startswith(("//", "/*", "*", "#", "using", "struct",
                                "class", "enum", "}", "{", "return")):
            continue
        m = re.search(r"[&*]?(\w+)\(", code)
        if m:
            names.add(m.group(1))
    return sorted(names - GENERIC_NAMES)


def governor_entry_points():
    """Public names of the memory-governance contract: ResourceGovernor's
    public methods, the GovernorStats helpers, and the namespace-scope
    free functions in src/support/ResourceGovernor.h."""
    return public_entry_points(
        (ROOT / "src/support/ResourceGovernor.h").read_text())


def key_cache_entry_points():
    """Public names of the rotation-key store: the public methods of
    RotationKeyCache in src/fhe/Keys.h."""
    header = (ROOT / "src/fhe/Keys.h").read_text()
    body = header.split("class RotationKeyCache {", 1)[1].split("\n};", 1)[0]
    return public_entry_points(body)


def check_governor_doc():
    doc = ROOT / "docs/memory.md"
    if not doc.exists():
        return ["docs/memory.md: missing (the memory-governance contract "
                "must be documented)"]
    text = doc.read_text()
    return ([f"docs/memory.md: governance entry point '{name}' from "
             "src/support/ResourceGovernor.h is not documented"
             for name in governor_entry_points() if name not in text] +
            [f"docs/memory.md: key-store entry point '{name}' from "
             "RotationKeyCache (src/fhe/Keys.h) is not documented"
             for name in key_cache_entry_points() if name not in text])


def compile_option_fields():
    """The fields of air::CompileOptions in src/air/Pass.h: every
    `type Name = default;` declaration in the struct body."""
    header = (ROOT / "src/air/Pass.h").read_text()
    body = re.search(r"^struct CompileOptions \{\n(.*?)^\};", header,
                     re.DOTALL | re.MULTILINE)
    if not body:
        return []
    return re.findall(r"^\s+[\w:]+\s+(\w+)\s*(?:=[^;]*)?;", body.group(1),
                      re.MULTILINE)


def check_compile_options_doc():
    doc = ROOT / "docs/compiler.md"
    if not doc.exists():
        return ["docs/compiler.md: missing (the pipeline policy contract "
                "must be documented)"]
    fields = compile_option_fields()
    if not fields:
        return ["src/air/Pass.h: no air::CompileOptions fields found"]
    text = doc.read_text()
    return [f"docs/compiler.md: CompileOptions field '{name}' from "
            "src/air/Pass.h is not documented"
            for name in fields if not re.search(rf"\b{name}\b", text)]


def env_settings():
    """The ACE_* variables of the settings module: the rows of the
    table in src/support/Env.cpp."""
    source = (ROOT / "src/support/Env.cpp").read_text()
    return set(re.findall(r'\{"(ACE_[A-Z_]+)"', source))


def check_settings_table():
    doc = ROOT / "docs/architecture.md"
    rows = set(re.findall(r"^\| `(ACE_[A-Z_]+)` \|", doc.read_text(),
                          re.MULTILINE))
    module = env_settings()
    if not module:
        return ["src/support/Env.cpp: no settings table rows found"]
    return ([f"docs/architecture.md: settings table misses '{name}' "
             "from src/support/Env.cpp" for name in sorted(module - rows)] +
            [f"docs/architecture.md: settings table lists '{name}', which "
             "src/support/Env.cpp does not read"
             for name in sorted(rows - module)])


C_API_HEADERS = ("src/fhe/CApi.h", "src/service/ServiceCApi.h")
# A declaration names its entry before the "(" on a non-comment line.
C_API_DECL = re.compile(r"^(?!\s*(?://|/\*|\*|#))[^(;]*?\b(ace_\w+)\s*\(",
                        re.MULTILINE)


def c_api_entries():
    """The ace_* entries the C API headers declare."""
    names = set()
    for header in C_API_HEADERS:
        names.update(C_API_DECL.findall((ROOT / header).read_text()))
    return sorted(names)


def check_c_api_callers():
    entries = c_api_entries()
    if not entries:
        return [f"{', '.join(C_API_HEADERS)}: no ace_* entries found"]
    callers = [p for p in sorted((ROOT / "tests").rglob("*")) if p.is_file()]
    callers.append(ROOT / "src/codegen/CodeEmitter.cpp")
    text = "\n".join(p.read_text(errors="ignore") for p in callers)
    return [f"C API entry '{name}' is named by no test and not emitted "
            "by src/codegen/CodeEmitter.cpp"
            for name in entries if not re.search(rf"\b{name}\b", text)]


def main():
    errors = []
    readme = (ROOT / "README.md").read_text()
    for page in sorted((ROOT / "docs").glob("*.md")):
        if f"docs/{page.name}" not in readme:
            errors.append(f"README.md: docs/{page.name} is not referenced "
                          "(add it to the docs index)")
    for path in markdown_files():
        errors.extend(check_links(path))
    errors.extend(check_backend_doc())
    errors.extend(check_governor_doc())
    errors.extend(check_compile_options_doc())
    errors.extend(check_settings_table())
    errors.extend(check_c_api_callers())
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    count = len(markdown_files())
    entry_points = len(backend_entry_points())
    governor_points = (len(governor_entry_points()) +
                       len(key_cache_entry_points()))
    print(f"docs check OK: {count} markdown files, all docs/ pages "
          "indexed, all relative links resolve, all "
          f"{entry_points} poly-backend and {governor_points} "
          "memory-governance entry points, all "
          f"{len(compile_option_fields())} compile options and all "
          f"{len(env_settings())} runtime settings documented, all "
          f"{len(c_api_entries())} C API entries called")
    return 0


if __name__ == "__main__":
    sys.exit(main())
