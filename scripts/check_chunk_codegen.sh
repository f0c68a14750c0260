#!/usr/bin/env bash
# Codegen guard for the SIMD kernels' column loops (docs/DESIGN.md §8,
# §10 and §11).
#
# Disassembles six groups of AVX-512 kernels in libanyseq.a:
#
#   * chunk: ragged_chunk_score<global, short, 32, affine_gap,
#     simple_scoring>, the inter-sequence chunk kernel;
#   * chunk_local: the same kernel's local and extension instantiations;
#   * chunk_diff: diff_chunk_score<global or semiglobal, 64, affine_gap,
#     simple_scoring>, the int8 difference chunk kernel;
#   * striped: striped_pass<global, 32, affine_gap, simple_scoring,
#     frontier_io>, the striped tile pass (both sequence views);
#   * striped_local: striped_pass<local or extension, 32, affine_gap,
#     simple_scoring, ...>, the local and extension striped passes
#     (either boundary);
#   * antidiag: antidiag_pass<ad_regs<pack<short, 32>>, affine_gap,
#     simple_scoring>, the band pass's single-pack anti-diagonal sweep
#     (its loops count as column loops here).
#
# In each it finds the column loops — the innermost loops that run a max
# chain (vpmaxsw; vpmaxsb in chunk_diff) — and fails if a loop
#
#   1. loads a vector from the stack (a `v*` instruction reading an
#      %rsp-relative operand): a loop-carried pack (F, H-left; u, y) or a
#      relax temporary spilled and reloaded every cell; or
#   2. contains vpmovm2w / vpmovw2m (vpmovm2b / vpmovb2m in chunk_diff):
#      a comparison's k-mask widened into a vector and narrowed back
#      before its blend; or
#   3. (striped only) issues more zmm ALU instructions (a `v*` other than
#      a move, with a zmm operand) per stripe vector than the row-biased
#      frame needs: 8 in pass 1, the loop with the substitution compare
#      (vpcmpeqw), and 3 in pass 2, every other such loop.
#
# Each costs the kernel its register-resident recurrence or its op
# budget; the first two went unnoticed for many changes before this
# guard existed.  Rule 3's budget holds the global striped pass alone.
# The anti-diagonal sweep's two previous anti-diagonals must stay in
# registers — a version that reloaded the previous anti-diagonal at a
# one-lane offset took ~16k cycles per 150 bp pass against ~9k
# (store-forwarding stalls).  The report prints each loop's instruction
# count, zmm ALU count and stack accesses (stores included) for each
# instantiation found.  A loop the compiler unrolls counts its ALU
# instructions per iteration, so an unrolled pass fails rule 3 until the
# limits follow.
#
# Usage: check_chunk_codegen.sh <path/to/libanyseq.a>
#        check_chunk_codegen.sh --self-test
# Honors $NM (default: nm) and $OBJDUMP (default: objdump).  Meaningful
# only for an optimized build with the AVX-512 variant compiled native
# (sanitizer builds spill by design).
#
# --self-test feeds the audit canned listings: clean loops that must
# pass, and loops with a stack reload, a mask round trip (in the chunk
# kernels and in the anti-diagonal sweep), an op over the striped budget,
# or no kernel loop at all, each of which must fail.

set -euo pipefail

NM="${NM:-nm}"
OBJDUMP="${OBJDUMP:-objdump}"

CHUNK_RE='anyseq::v_avx512::tiled::ragged_chunk_score<\(anyseq::align_kind\)0, short, 32, anyseq::affine_gap, anyseq::simple_scoring,'
CHUNK_LOCAL_RE='anyseq::v_avx512::tiled::ragged_chunk_score<\(anyseq::align_kind\)[13], short, 32, anyseq::affine_gap, anyseq::simple_scoring,'
STRIPED_RE='anyseq::v_avx512::tiled::striped_detail::striped_pass<\(anyseq::align_kind\)0, 32, anyseq::affine_gap, anyseq::simple_scoring, anyseq::v_avx512::tiled::striped_detail::frontier_io<'
STRIPED_LOCAL_RE='anyseq::v_avx512::tiled::striped_detail::striped_pass<\(anyseq::align_kind\)[13], 32, anyseq::affine_gap, anyseq::simple_scoring,'
CHUNK_DIFF_RE='anyseq::v_avx512::tiled::diff_chunk_score<\(anyseq::align_kind\)[02], 64, anyseq::affine_gap, anyseq::simple_scoring,'
ANTIDIAG_RE='anyseq::v_avx512::detail::antidiag_pass<anyseq::v_avx512::detail::ad_regs<anyseq::v_avx512::simd::pack<short, 32> >, anyseq::affine_gap, anyseq::simple_scoring, short>'

# The audit proper: reads `objdump -d --no-show-raw-insn` output on stdin;
# $1 names the kernel (chunk, chunk_local, chunk_diff, striped,
# striped_local or antidiag).
audit() {
  local w=w
  [ "$1" = chunk_diff ] && w=b
  awk -v kernel="$1" -v maxop="vpmaxs$w" -v m2v="vpmovm2$w" -v v2m="vpmov${w}2m" '
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
  # Check the finished function: its innermost loops that carry maxop.
  function flush(    a, b, k, t, s, inner, found, insns, loads, stores,
                     trips, ops, store, alu, pass1, limit) {
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
      insns = loads = stores = trips = alu = pass1 = 0
      kernel_loop = 0
      for (k = 1; k <= n; k++) {
        if (addr[k] < t || addr[k] > s) continue
        insns++
        if (mnem[k] == maxop) kernel_loop = 1
        if (mnem[k] == "vpcmpeqw") pass1 = 1
        if (mnem[k] == m2v || mnem[k] == v2m) trips++
        if (mnem[k] ~ /^v/ && mnem[k] !~ /^vmov/ && opnd[k] ~ /%zmm/) alu++
        ops = opnd[k]
        gsub(/\{[^}]*\}/, "", ops)
        if (ops ~ /\(%rsp[,)]/) {
          store = ops ~ /\(%rsp[^)]*\)$/
          if (store) stores++
          else if (mnem[k] ~ /^v/) loads++
        }
      }
      if (!kernel_loop) continue
      found++
      printf "%s codegen: instantiation %d, loop [%x, %x]: %d instructions, %d zmm ALU, %d stack loads, %d stack stores, %d mask round-trip instructions\n", \
             kernel, checked + 1, t, s, insns, alu, loads, stores, trips
      if (loads > 0) {
        printf "VIOLATION: %d %%rsp-relative vector load(s) in the column loop\n", loads
        bad++
      }
      if (trips > 0) {
        printf "VIOLATION: %d %s/%s in the column loop\n", trips, m2v, v2m
        bad++
      }
      if (kernel == "striped") {
        limit = pass1 ? 8 : 3
        if (pass1) passes1++; else passes2++
        if (alu > limit) {
          printf "VIOLATION: %d zmm ALU instructions in striped pass %d (at most %d)\n", alu, pass1 ? 1 : 2, limit
          bad++
        }
      }
    }
    if (found == 0) {
      printf "VIOLATION: no column loop (innermost loop with %s) in %s\n", maxop, fn
      bad++
    }
    if (kernel == "striped" && (passes1 == 0 || passes2 == 0)) {
      printf "VIOLATION: %s lacks a striped pass %d loop\n", fn, passes1 == 0 ? 1 : 2
      bad++
    }
    checked++
    n = nl = passes1 = passes2 = 0
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
      printf "%s codegen FAILED: %d violation(s)\n", kernel, bad
      exit 1
    }
    printf "%s codegen OK: the column loops keep their packs in registers%s\n", \
           kernel, kernel == "striped" ? " within the op budget" : ""
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

# The anti-diagonal sweep's loop, shaped like the real one: the shift,
# relax with each compare fused into its blend through a k-mask, the
# predecessor bytes' narrowing store.
antidiag_listing() {
  cat <<'EOF'
0000000000000000 <sweep>:
 7e0:	vmovdqu16 (%rdx,%rax,2),%zmm3
 7e7:	vpermt2w %zmm12,%zmm22,%zmm2
 7ed:	vpaddsw %zmm2,%zmm14,%zmm4
 7f3:	vpaddsw %zmm6,%zmm15,%zmm5
 800:	vpmaxsw %zmm4,%zmm5,%zmm6
 80c:	vpcmpeqw (%rsi,%rax,2),%zmm3,%k2
 813:	vpblendmw %zmm9,%zmm10,%zmm8{%k2}
 819:	vpaddsw %zmm8,%zmm1,%zmm8
 81f:	vpcmpnlew %zmm4,%zmm5,%k3
 825:	vpblendmw %zmm11,%zmm13,%zmm0{%k3}
 82b:	vpmovwb %zmm0,%ymm0
 831:	vmovdqu %ymm0,(%r8,%rcx,1)
 836:	vmovdqa64 %zmm6,%zmm1
 83c:	add    $0x2,%rcx
 840:	cmp    %rcx,%r9
 843:	jg     7e0 <sweep+0x7e0>
EOF
}

# The difference chunk's column loop, shaped like the real one: the
# substitution compare fused into its blend, the int8 max chain, the
# u / v / x / y updates and the stores of v and x.
diff_listing() {
  cat <<'EOF'
0000000000000000 <diff>:
 378:	vpcmpeqb (%r8,%r9,1),%zmm16,%k2
 37f:	vmovdqa64 (%rdx,%r9,1),%zmm3
 386:	vpaddsb (%r12,%r9,1),%zmm3,%zmm8
 38d:	vpaddsb %zmm2,%zmm0,%zmm0
 393:	vmovdqa64 %zmm2,%zmm10
 399:	vpmaxsb %zmm8,%zmm0,%zmm2
 39f:	vpblendmb %zmm14,%zmm15,%zmm9{%k2}
 3a5:	vpmaxsb %zmm2,%zmm9,%zmm9
 3ab:	vpsubb (%r12,%r9,1),%zmm9,%zmm2
 3b2:	vpsubb %zmm9,%zmm8,%zmm8
 3b8:	vpsubb %zmm10,%zmm9,%zmm10
 3be:	vpmaxsb %zmm13,%zmm8,%zmm8
 3c4:	vpsubb %zmm9,%zmm0,%zmm0
 3ca:	vmovdqa64 %zmm10,(%r12,%r9,1)
 3d1:	vpaddsb %zmm12,%zmm8,%zmm8
 3d7:	vpmaxsb %zmm13,%zmm0,%zmm0
 3dd:	vmovdqa64 %zmm8,(%rdx,%r9,1)
 3e4:	add    $0x40,%r9
 3e8:	vpaddsb %zmm12,%zmm0,%zmm0
 3ee:	cmp    %r9,%rdi
 3f2:	jne    378 <diff+0x378>
EOF
}

# The striped pass's two column loops within budget: pass 1 with 8 zmm
# ALU instructions (the substitution compare among them), pass 2 with 3.
striped_listing() {
  cat <<'EOF'
0000000000000000 <pass>:
 530:	vpaddsw (%r12,%rax,1),%zmm10,%zmm2
 537:	vpmaxsw (%r15,%rax,1),%zmm2,%zmm2
 53e:	vmovdqa64 %zmm4,%zmm0
 544:	vmovdqa64 (%r8,%rax,1),%zmm4
 54b:	vmovdqa64 %zmm2,(%r12,%rax,1)
 552:	vpcmpeqw (%rsi,%rax,1),%zmm9,%k1
 559:	vpblendmw %zmm11,%zmm12,%zmm22{%k1}
 55f:	vpaddsw %zmm22,%zmm0,%zmm0
 565:	vpmaxsw %zmm2,%zmm0,%zmm0
 56b:	vmovdqa64 %zmm0,(%r8,%rax,1)
 572:	vpaddsw %zmm13,%zmm0,%zmm0
 578:	vmovdqa64 %zmm0,(%rdi,%rax,1)
 57f:	add    $0x40,%rax
 583:	vpmaxsw %zmm0,%zmm5,%zmm5
 589:	cmp    %rax,%r13
 58c:	jne    530 <pass+0x530>
 5fb:	vpbroadcastw %eax,%zmm0
 603:	vpermt2w %zmm5,%zmm17,%zmm0
 6a1:	vmovdqa64 (%r8,%rax,1),%zmm4
 6a8:	vmovdqa64 (%rdi,%rax,1),%zmm5
 6b3:	vpmaxsw %zmm0,%zmm4,%zmm4
 6b9:	vpmaxsw %zmm5,%zmm0,%zmm0
 6bf:	vmovdqa64 %zmm4,(%r8,%rax,1)
 6c6:	vpaddsw %zmm8,%zmm4,%zmm4
 6cc:	vmovdqa64 %zmm4,(%r15,%rax,1)
 6d3:	add    $0x40,%rax
 6d7:	cmp    %r10,%rcx
 6da:	jne    6a1 <pass+0x6a1>
 6e0:	jmp    530 <pass+0x530>
EOF
}

expect() {
  local want="$1" what="$2" kernel="${3:-chunk}"
  if audit "$kernel" >/dev/null; then got=pass; else got=fail; fi
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
  striped_listing | expect pass "striped passes within budget" striped
  striped_listing |
    sed 's/^ 57f:.*/ 57f:\tvpaddsw %zmm7,%zmm5,%zmm5/' |
    expect fail "a 9th zmm ALU instruction in pass 1" striped
  striped_listing |
    sed 's/^ 6d3:.*/ 6d3:\tvpaddsw %zmm7,%zmm0,%zmm0/' |
    expect fail "a 4th zmm ALU instruction in pass 2" striped
  striped_listing |
    sed 's/^ 6a8:.*/ 6a8:\tvmovdqa64 0x40(%rsp),%zmm5/' |
    expect fail "stack reload in pass 2" striped
  striped_listing | sed '/^ 6a1:/,/^ 6da:/d' |
    expect fail "listing without pass 2" striped
  diff_listing | expect pass "difference chunk loop in registers" chunk_diff
  diff_listing |
    sed 's/^ 38d:.*/ 38d:\tvpaddsb 0x240(%rsp),%zmm0,%zmm0/' |
    expect fail "difference chunk reloading u from the stack" chunk_diff
  diff_listing |
    sed 's/^ 378:.*/ 378:\tvpcmpeqb (%r8,%r9,1),%zmm16,%k2\n 379:\tvpmovm2b %k2,%zmm7\n 37a:\tvpmovb2m %zmm7,%k2/' |
    expect fail "difference chunk with a mask round trip" chunk_diff
  diff_listing | grep -v vpmaxsb |
    expect fail "listing without the difference chunk loop" chunk_diff
  clean_listing | expect fail "int16 chunk loop audited as a difference loop" chunk_diff
  antidiag_listing | expect pass "anti-diagonal sweep in registers" antidiag
  antidiag_listing |
    sed 's/^ 7ed:.*/ 7ed:\tvpaddsw 0x80(%rsp),%zmm14,%zmm4/' |
    expect fail "anti-diagonal sweep reloading H(r-1) from the stack" antidiag
  antidiag_listing |
    sed 's/^ 81f:.*/ 81f:\tvpcmpgtw %zmm4,%zmm5,%k1\n 820:\tvpmovm2w %k1,%zmm7\n 821:\tvpmovw2m %zmm7,%k3/' |
    expect fail "anti-diagonal sweep with a mask round trip" antidiag
  antidiag_listing | grep -v vpmaxsw |
    expect fail "listing without the anti-diagonal sweep" antidiag
  echo "codegen self-test OK: violations are detected, clean loops pass"
}

if [ "${1:-}" = "--self-test" ]; then
  self_test
  exit 0
fi

LIB="${1:?usage: check_chunk_codegen.sh <libanyseq.a> | --self-test}"

if [ ! -f "$LIB" ]; then
  echo "codegen: archive not found: $LIB" >&2
  exit 2
fi

# Audit kernel $1: every instantiation whose demangled name matches $2
# ($3 names it in the report).  nm and nm -C list the same symbols in the
# same order: pair them to find the mangled names.
audit_lib() {
  local kernel="$1" re="$2" what="$3" syms
  syms=$(paste -d '\t' <("$NM" --defined-only "$LIB") \
                       <("$NM" -C --defined-only "$LIB") |
         awk -F '\t' -v re="$re" \
             '$2 ~ re { n = split($1, f, " "); print f[n] }' | sort -u)
  if [ -z "$syms" ]; then
    echo "VIOLATION: no AVX-512 $what in $LIB"
    echo "$kernel codegen FAILED: 1 violation(s)"
    return 1
  fi
  for s in $syms; do
    "$OBJDUMP" -d --no-show-raw-insn --disassemble="$s" "$LIB"
  done | audit "$kernel"
}

status=0
audit_lib chunk "$CHUNK_RE" \
  "ragged_chunk_score<global, short, 32, affine_gap, simple_scoring>" ||
  status=1
audit_lib chunk_local "$CHUNK_LOCAL_RE" \
  "ragged_chunk_score<local|extension, short, 32, affine_gap, simple_scoring>" ||
  status=1
audit_lib striped "$STRIPED_RE" \
  "striped_pass<global, 32, affine_gap, simple_scoring, frontier_io>" ||
  status=1
audit_lib striped_local "$STRIPED_LOCAL_RE" \
  "striped_pass<local|extension, 32, affine_gap, simple_scoring>" ||
  status=1
audit_lib chunk_diff "$CHUNK_DIFF_RE" \
  "diff_chunk_score<global|semiglobal, 64, affine_gap, simple_scoring>" ||
  status=1
audit_lib antidiag "$ANTIDIAG_RE" \
  "antidiag_pass<ad_regs<pack<short, 32>>, affine_gap, simple_scoring>" ||
  status=1
exit "$status"
