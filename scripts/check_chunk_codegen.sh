#!/usr/bin/env bash
# Codegen guard for the inter-sequence chunk kernel (docs/DESIGN.md §8).
#
# Disassembles the AVX-512 instantiation of
# ragged_chunk_score<global, short, 32, affine_gap, simple_scoring> in
# libanyseq.a, finds its column loop — the innermost loop that runs the
# relax max chain (vpmaxsw) — and fails if that loop
#
#   1. loads a vector from the stack (a `v*` instruction reading an
#      %rsp-relative operand): a loop-carried pack (F, H-left) or a
#      relax temporary spilled and reloaded every cell; or
#   2. contains vpmovm2w / vpmovw2m: a comparison's k-mask widened into a
#      vector and narrowed back before its blend.
#
# Either costs the kernel its register-resident recurrence; both went
# unnoticed for many changes before this guard existed.  The report
# prints the loop's instruction count and its stack accesses (stores
# included) for each instantiation found.
#
# Usage: check_chunk_codegen.sh <path/to/libanyseq.a>
#        check_chunk_codegen.sh --self-test
# Honors $NM (default: nm) and $OBJDUMP (default: objdump).  Meaningful
# only for an optimized build with the AVX-512 variant compiled native
# (sanitizer builds spill by design).
#
# --self-test feeds the audit canned listings: a clean loop that must
# pass, and loops with a stack reload, a mask round trip, or no kernel
# loop at all, each of which must fail.

set -euo pipefail

NM="${NM:-nm}"
OBJDUMP="${OBJDUMP:-objdump}"

KERNEL_RE='anyseq::v_avx512::tiled::ragged_chunk_score<\(anyseq::align_kind\)0, short, 32, anyseq::affine_gap, anyseq::simple_scoring,'

# The audit proper: reads `objdump -d --no-show-raw-insn` output on stdin.
audit() {
  awk '
  function hex(s,    i, c, v) {
    v = 0
    s = tolower(s)
    for (i = 1; i <= length(s); i++) {
      c = index("0123456789abcdef", substr(s, i, 1))
      if (c == 0) break
      v = v * 16 + c - 1
    }
    return v
  }
  # Check the finished function: its innermost loops that carry vpmaxsw.
  function flush(    a, b, k, t, s, inner, found, insns, loads, stores,
                     trips, ops, store) {
    if (n == 0) return
    found = 0
    for (a = 1; a <= nl; a++) {
      inner = 1
      for (b = 1; b <= nl; b++)
        if (b != a && lt[b] >= lt[a] && ls[b] <= ls[a] &&
            (lt[b] != lt[a] || ls[b] != ls[a]))
          inner = 0
      if (!inner) continue
      t = lt[a]; s = ls[a]
      insns = loads = stores = trips = 0
      kernel = 0
      for (k = 1; k <= n; k++) {
        if (addr[k] < t || addr[k] > s) continue
        insns++
        if (mnem[k] == "vpmaxsw") kernel = 1
        if (mnem[k] == "vpmovm2w" || mnem[k] == "vpmovw2m") trips++
        ops = opnd[k]
        gsub(/\{[^}]*\}/, "", ops)
        if (ops ~ /\(%rsp[,)]/) {
          store = ops ~ /\(%rsp[^)]*\)$/
          if (store) stores++
          else if (mnem[k] ~ /^v/) loads++
        }
      }
      if (!kernel) continue
      found++
      printf "chunk codegen: instantiation %d, loop [%x, %x]: %d instructions, %d stack loads, %d stack stores, %d mask round-trip instructions\n", \
             checked + 1, t, s, insns, loads, stores, trips
      if (loads > 0) {
        printf "VIOLATION: %d %%rsp-relative vector load(s) in the column loop\n", loads
        bad++
      }
      if (trips > 0) {
        printf "VIOLATION: %d vpmovm2w/vpmovw2m in the column loop\n", trips
        bad++
      }
    }
    if (found == 0) {
      printf "VIOLATION: no column loop (innermost loop with vpmaxsw) in %s\n", fn
      bad++
    }
    checked++
    n = nl = 0
  }
  /^[0-9a-fA-F]+ <.*>:$/ {
    flush()
    fn = $2
    next
  }
  /^ *[0-9a-fA-F]+:\t/ {
    line = $0
    sub(/^ */, "", line)
    colon = index(line, ":")
    a = hex(substr(line, 1, colon - 1))
    rest = substr(line, colon + 2)
    sub(/^[ \t]+/, "", rest)
    split(rest, f, /[ \t]+/)
    m = f[1]
    o = substr(rest, length(m) + 1)
    sub(/^[ \t]+/, "", o)
    sub(/[ \t]+<.*$/, "", o)
    n++
    addr[n] = a; mnem[n] = m; opnd[n] = o
    # A backward branch closes a loop [target, branch].
    if (m ~ /^j/ && o ~ /^[0-9a-fA-F]+$/ && hex(o) <= a) {
      nl++
      lt[nl] = hex(o); ls[nl] = a
    }
  }
  END {
    flush()
    if (checked == 0) {
      print "VIOLATION: no kernel instantiation in the listing"
      bad++
    }
    if (bad > 0) {
      printf "chunk codegen FAILED: %d violation(s)\n", bad
      exit 1
    }
    print "chunk codegen OK: the column loop keeps its packs in registers"
  }
'
}

# A register-resident column loop, shaped like the real one.
clean_listing() {
  cat <<'EOF'
0000000000000000 <kernel>:
 200:	mov    $0x40,%eax
 228:	vmovdqa64 %zmm4,%zmm3
 22e:	vmovdqa64 (%r14,%rax,1),%zmm4
 238:	vpaddsw (%r11,%rax,1),%zmm6,%zmm1
 23f:	vpcmpeqw (%r15,%rax,1),%zmm10,%k1
 259:	vpmaxsw %zmm0,%zmm2,%zmm2
 265:	vpblendmw %zmm8,%zmm9,%zmm0{%k1}
 26b:	vmovdqa64 %zmm1,0x200(%rsp)
 285:	vmovdqa64 %zmm0,(%r14,%rax,1)
 29b:	add    $0x40,%rax
 2a2:	jne    228 <kernel+0x228>
 2a4:	add    $0x1,%rcx
 2ab:	jl     200 <kernel+0x200>
EOF
}

expect() {
  local want="$1" what="$2"
  if audit >/dev/null; then got=pass; else got=fail; fi
  if [ "$got" != "$want" ]; then
    echo "codegen SELF-TEST FAILED: $what should $want" >&2
    exit 1
  fi
  echo "codegen self-test: $what: ${want}, as it should"
}

self_test() {
  clean_listing | expect pass "register-resident loop"
  clean_listing | sed 's/^ 238:.*/ 238:\tvpaddsw 0xc0(%rsp),%zmm5,%zmm1/' |
    expect fail "stack reload of a loop-carried pack"
  clean_listing |
    sed 's/^ 23f:.*/ 23f:\tvpmovm2w %k0,%zmm0\n 240:\tvpmovw2m %zmm0,%k1/' |
    expect fail "mask round trip"
  clean_listing | grep -v vpmaxsw | expect fail "listing without the kernel loop"
  : | expect fail "empty listing"
  echo "codegen self-test OK: violations are detected, a clean loop passes"
}

if [ "${1:-}" = "--self-test" ]; then
  self_test
  exit 0
fi

LIB="${1:?usage: check_chunk_codegen.sh <libanyseq.a> | --self-test}"

if [ ! -f "$LIB" ]; then
  echo "chunk codegen: archive not found: $LIB" >&2
  exit 2
fi

# nm and nm -C list the same symbols in the same order: pair them to
# find the mangled names of the instantiations.
syms=$(paste -d '\t' <("$NM" --defined-only "$LIB") \
                     <("$NM" -C --defined-only "$LIB") |
       awk -F '\t' -v re="$KERNEL_RE" \
           '$2 ~ re { n = split($1, f, " "); print f[n] }' | sort -u)
if [ -z "$syms" ]; then
  echo "VIOLATION: no AVX-512 ragged_chunk_score<global, short, 32, affine_gap, simple_scoring> in $LIB"
  echo "chunk codegen FAILED: 1 violation(s)"
  exit 1
fi
for s in $syms; do
  "$OBJDUMP" -d --no-show-raw-insn --disassemble="$s" "$LIB"
done | audit
