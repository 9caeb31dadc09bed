import dataclasses
import functools
import inspect
import random

import pytest

from specsim import isa, scenarios
from specsim.isa import (AsmError, Imm, Instruction, Mem, MicroOp, Reg, UopKind,
                         assemble, decode, disassemble, REG_RETTMP, SP)
from specsim.scenarios import ALL_MITIGATIONS, BUILDERS, build_scenario
from randprog import random_program


def test_store_is_one_instruction():
    p = assemble("main:\n    st.8 r3, [r1+0]\n    halt\n")
    ins = p.instructions[0]
    assert ins.mnemonic == "st.8"
    assert ins.operands == (Reg(3), Mem(1, 0))
    assert not ins.forwardable


def test_forwardable_mark_on_load():
    p = assemble("    ld.8! r2, [r1+0]\n    halt\n")
    assert p.instructions[0].forwardable is True


def test_forwardable_mark_rejected_elsewhere():
    with pytest.raises(AsmError):
        assemble("    add! r1, r2, r3\n")


def test_undefined_label_error():
    with pytest.raises(AsmError, match="undefined label 'done'"):
        assemble("    jbe done\n")


def test_unknown_mnemonic_error():
    with pytest.raises(AsmError, match="unknown mnemonic"):
        assemble("    frobnicate r1\n")


def test_syntax_error_carries_location():
    try:
        assemble("    movi r1, 3\n    add r1 r2\n")
    except AsmError as e:
        assert e.line == 2
    else:
        pytest.fail("expected AsmError")


def test_misaligned_data_directive():
    with pytest.raises(AsmError, match="not 8-byte aligned"):
        assemble(".data 0x10003 rw 00\n")


def test_overlapping_data_segments():
    with pytest.raises(AsmError, match="overlap"):
        assemble(".data 0x10000 rw 00 11 22 33 44 55 66 77 88 99\n"
                 ".data 0x10008 rw 44\n")


def test_duplicate_label():
    with pytest.raises(AsmError, match="duplicate label"):
        assemble("a:\n    nop\na:\n    halt\n")


@pytest.mark.parametrize("line,msg", [(".label 9x", "bad label name '9x'"),
                                      (".label a b", ".label takes one name")])
def test_bad_label_directive_is_rejected(line, msg):
    with pytest.raises(AsmError) as e:
        assemble(f"    nop\n  {line}\n")
    assert str(e.value) == f"line 2, col 2: {msg}"


def test_operand_count_mismatch():
    with pytest.raises(AsmError, match="expects 3 operand"):
        assemble("    add r1, r2\n")


def test_pc_assignment_and_alignment():
    p = assemble("    nop\n    nop\n    halt\n")
    assert [i.pc for i in p.instructions] == [0, 4, 8]


def test_store_decodes_to_sta_std_pair():
    p = assemble("    st.4 r3, [r1+8]\n")
    uops = decode(p.instructions[0])
    assert [u.kind for u in uops] == [UopKind.STA, UopKind.STD]
    sta, std = uops
    assert sta.size == std.size == 4
    assert sta.srcs == (1,) and sta.imm == 8
    assert std.srcs == (3,)
    assert not sta.last and std.last


def test_return_decodes_to_lda_then_jr():
    p = assemble("    ret\n")
    lda, jr = decode(p.instructions[0])
    assert lda.kind == UopKind.LDA and lda.dst == REG_RETTMP and lda.dst2 == SP
    assert jr.kind == UopKind.JR_INDIRECT and jr.srcs == (REG_RETTMP,)
    assert jr.is_return


def test_alu_decodes_to_single_uop():
    p = assemble("    add r1, r2, r3\n")
    uops = decode(p.instructions[0])
    assert len(uops) == 1 and uops[0].kind == UopKind.ALU


def test_fence_has_no_register_operands():
    p = assemble("    fence\n")
    (uop,) = decode(p.instructions[0])
    assert uop.kind == UopKind.FENCE
    assert uop.srcs == () and uop.dst is None


def test_decode_is_pure():
    ins = Instruction(0, "st.8", (Reg(3), Mem(1, 0)))
    assert decode(ins) == decode(ins)
    assert type(decode(ins)) is tuple


def test_programs_share_mnemonics_pcs_and_register_tuples():
    a = assemble("main:\n    add r1, r2, r3\n    ld.8 r4, [r2+8]\n    cmp r1, r4\n"
                 "    csel.b r5, r1, r4\n    halt\n")
    b = assemble("    nop\n    sub r5, r2, r3\n    st.4! r1, [r2]\n    add r1, r2, r3\n"
                 "    csel.a r6, r1, r4\n    halt\n")
    keys = {m: m for m in isa._SIGNATURES}
    for ins in a.instructions + b.instructions:
        assert ins.mnemonic is keys[ins.mnemonic]
    assert all(x.pc is y.pc for x, y in zip(a.instructions, b.instructions))
    assert a.instructions[0].operands is b.instructions[3].operands
    (add,), (ld,), (cmp,), (csel,), _ = map(decode, a.instructions)
    _, (sub,), (sta, std), _, (csel_a,), _ = map(decode, b.instructions)
    assert add.srcs == (2, 3) and add.srcs is sub.srcs
    assert ld.srcs == (2,) and ld.srcs is sta.srcs
    assert std.srcs == (1,) and cmp.srcs == (1, 4)
    assert csel.srcs == (1, 4, isa.REG_FLAGS) and csel.srcs is csel_a.srcs


@pytest.mark.parametrize("make", [
    lambda: Reg(3), lambda: Imm(-5), lambda: Mem(1, 8),
    lambda: Instruction(4, "st.8", (Reg(3), Mem(1, 0))),
    lambda: MicroOp(UopKind.STA, 4, srcs=(1,), size=8)])
def test_isa_values_are_frozen_slotted_and_equal_by_value(make):
    a, b = make(), make()
    assert a == b and a is not b and hash(a) == hash(b)
    assert not hasattr(a, "__dict__")
    field = dataclasses.fields(a)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, field, 0)


def test_forwardable_is_a_bool_set_only_by_the_mark():
    p = assemble("    ld.8 r2, [r1]\n    ld.8! r3, [r1]\n    st.8 r2, [r1]\n"
                 "    st.4! r2, [r1]\n    halt\n")
    assert [i.forwardable for i in p.instructions] == [False, True, False, True,
                                                       False]
    assert Instruction(0, "nop").forwardable is False
    marked = [u for i in p.instructions for u in decode(i) if u.forwardable]
    assert [u.kind for u in marked] == [UopKind.LDA, UopKind.STA, UopKind.STD]


def test_uops_per_instruction_between_1_and_2():
    rng = random.Random(7)
    p = assemble(random_program(rng, 150))
    counts = [len(decode(i)) for i in p.instructions]
    assert all(1 <= c <= 2 for c in counts)
    ratio = sum(counts) / len(counts)
    assert 1.0 <= ratio <= 2.0


@pytest.mark.parametrize("seed", range(6))
def test_assemble_disassemble_roundtrip_random(seed):
    src = random_program(random.Random(seed), 80)
    p = assemble(src)
    again = assemble(disassemble(p))
    assert again == p


def test_roundtrip_with_data_and_labels():
    src = """
main:
    movi r1, 0x10000
    ld.8! r2, [r1]
    cmp r1, r2
check:
    jbe main
    st.2 r2, [r1-16]
    call fn
    halt
fn:
    csel.b r3, r1, r2
    ret
end:
.data 0x10000 ro de ad be ef
"""
    p = assemble(src)
    assert p.labels["end"] == 4 * len(p.instructions)     # one past the last
    assert assemble(disassemble(p)) == p


def test_label_directive_and_sugar_agree():
    a = assemble(".label top\n    jmp top\n")
    b = assemble("top:\n    jmp top\n")
    assert a.labels == b.labels == {"top": 0}


def test_negative_memory_offset():
    p = assemble("    ld.8 r1, [sp-24]\n")
    (uop,) = decode(p.instructions[0])
    assert uop.srcs == (SP,) and uop.imm == -24


# -- the operand splitter against the character walk it replaced -------------

def split_by_characters(text):
    """The assembler's original operand splitter, one character at a time:
    a comma splits when the bracket depth before it is zero."""
    out, depth, cur, start = [], 0, [], 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            tok = "".join(cur).strip()
            if tok:
                out.append((tok, start))
            cur, start = [], i + 1
        else:
            cur.append(ch)
    tok = "".join(cur).strip()
    if tok:
        out.append((tok, start))
    return out


def operand_texts(monkeypatch, build):
    """Every operand string the assembler reads while `build()` runs, all
    split by the token scan."""
    seen = []
    split = isa._split_operands

    def record(text):
        seen.append(text)
        return split(text)
    with monkeypatch.context() as m:
        m.setattr(isa, "_split_operands", record)
        m.setattr(isa, "_PLAIN", {})      # no line is plain: all take the token scan
        build()
    return seen


SPLIT_EDGE_CASES = [
    "", " ", ",", ",,", "r1,", "r1,,r2", ", r1", "r1, , r2", "r1 ,r2 ,",
    "[r1+8]", "r2, [r1+8]", "[ r2 - 0x10 ]", "r3, [ r2 - 0x10 ] ",
    "r1], r2", "]", "], r1, [", "r1, [r2, r3", "[", "[,", "[r1,]", "[[r1]], r2",
    "r1, [r2]], r3, r4", "[r1+8], [r2-8], r3", "\tr1 ,\t[ sp ]", "]]],[[[,r1",
]


def test_split_operands_matches_the_character_walk(monkeypatch):
    texts = list(SPLIT_EDGE_CASES)
    for seed in range(400):
        src = random_program(random.Random(seed), 120)
        texts += operand_texts(monkeypatch, lambda: assemble(src))
    for name in BUILDERS:
        for mitigation in ALL_MITIGATIONS:
            try:                        # built once, as an earlier test may have
                build_scenario(name, mitigation=mitigation)
            except ValueError:          # the scenario has no site for it
                continue
            scenarios._victim.cache_clear()     # so this build assembles again
            victim = operand_texts(
                monkeypatch, lambda: build_scenario(name, mitigation=mitigation))
            assert victim, (name, mitigation)
            texts += victim
    assert len(texts) > 20_000 and any("[" in t for t in texts)
    for text in texts:
        assert isa._split_operands(text) == split_by_characters(text), text


MUTATION_CHARS = "[],+- \tr0159xsp:;!.ab"


@pytest.mark.parametrize("block", range(4))
def test_assemble_errors_match_the_character_walk(monkeypatch, block):
    """Randomly mutated lines assemble to the same Program, or raise the same
    AsmError (message, line and column), under either splitter."""
    rng = random.Random(6000 + block)
    errors = 0
    for seed in range(block * 50, block * 50 + 50):
        lines = random_program(random.Random(seed), 40).splitlines()
        for _ in range(10):
            mutated = list(lines)
            i = rng.randrange(len(mutated))
            chars = list(mutated[i])
            for _ in range(rng.randint(1, 3)):
                pos = rng.randint(0, len(chars))
                op = rng.random()
                if op < 0.4 or not chars:
                    chars.insert(pos, rng.choice(MUTATION_CHARS))
                elif op < 0.7:
                    del chars[min(pos, len(chars) - 1)]
                else:
                    chars[min(pos, len(chars) - 1)] = rng.choice(MUTATION_CHARS)
            mutated[i] = "".join(chars)
            src = "\n".join(mutated) + "\n"
            outcomes = []
            for split in (isa._split_operands, split_by_characters):
                with monkeypatch.context() as m:
                    m.setattr(isa, "_split_operands", split)
                    try:
                        outcomes.append(assemble(src))
                    except AsmError as e:
                        outcomes.append((str(e), e.line, e.col))
                        errors += 1
            assert outcomes[0] == outcomes[1], src
    assert errors > 100      # the mutations do reach the error paths


# -- decode, pinned field by field for every mnemonic ------------------------

DECODE_SOURCE = """
top:
    movi r1, top
    mov r2, r3
    cmp r4, r5
    cmpi r6, 0x20
    add r1, r2, r3
    sub r4, r5, r6
    and r7, r8, r9
    or r10, r11, r12
    xor r13, r14, r15
    addi r1, r2, -1
    subi r3, r4, 2
    andi r5, r6, 0xff
    ori r7, r8, 4
    xori r9, r10, 5
    shli r11, r12, 9
    shri r13, sp, 63
    jb top
    jbe top
    jae end
    ja end
    je top
    jne end
    jmp end
    call top
    csel.b r1, r2, r3
    csel.be r4, r5, r6
    csel.ae r7, r8, r9
    csel.a r10, r11, r12
    csel.e r13, r14, r15
    csel.ne r16, r17, r18
    ld.1! r2, [r1+8]
    ld.2 r3, [sp-16]
    ld.4 r4, [r5]
    ld.8 r6, [r7+0x10]
    st.1! r2, [r1+8]
    st.2 r3, [sp-16]
    st.4 r4, [r5]
    st.8 r6, [r7+0x10]
    jr r20
    ret
    fence
    halt
    nop
end:
"""

ALU, CMP, BR, JR = UopKind.ALU, UopKind.CMP, UopKind.BR_COND, UopKind.JR_INDIRECT
LDA, STA, STD, CSEL = UopKind.LDA, UopKind.STA, UopKind.STD, UopKind.CSEL
OPS, BRS, SELS = isa.ALU_OPS, isa.BRANCHES, isa.SELECTS
FLAGS, END = isa.REG_FLAGS, 43 * 4

DECODED = [
    [MicroOp(ALU, 0, dst=1, imm=0, fn=isa._move)],
    [MicroOp(ALU, 4, dst=2, srcs=(3,), fn=isa._move)],
    [MicroOp(CMP, 8, dst=FLAGS, srcs=(4, 5), fn=isa.flags_for)],
    [MicroOp(CMP, 12, dst=FLAGS, srcs=(6,), imm=0x20, fn=isa.flags_for)],
    [MicroOp(ALU, 16, dst=1, srcs=(2, 3), fn=OPS["add"])],
    [MicroOp(ALU, 20, dst=4, srcs=(5, 6), fn=OPS["sub"])],
    [MicroOp(ALU, 24, dst=7, srcs=(8, 9), fn=OPS["and"])],
    [MicroOp(ALU, 28, dst=10, srcs=(11, 12), fn=OPS["or"])],
    [MicroOp(ALU, 32, dst=13, srcs=(14, 15), fn=OPS["xor"])],
    [MicroOp(ALU, 36, dst=1, srcs=(2,), imm=isa.MASK64, fn=OPS["addi"])],
    [MicroOp(ALU, 40, dst=3, srcs=(4,), imm=2, fn=OPS["subi"])],
    [MicroOp(ALU, 44, dst=5, srcs=(6,), imm=0xFF, fn=OPS["andi"])],
    [MicroOp(ALU, 48, dst=7, srcs=(8,), imm=4, fn=OPS["ori"])],
    [MicroOp(ALU, 52, dst=9, srcs=(10,), imm=5, fn=OPS["xori"])],
    [MicroOp(ALU, 56, dst=11, srcs=(12,), imm=9, fn=OPS["shli"])],
    [MicroOp(ALU, 60, dst=13, srcs=(SP,), imm=63, fn=OPS["shri"])],
    [MicroOp(BR, 64, srcs=(FLAGS,), imm=0, fn=BRS["jb"])],
    [MicroOp(BR, 68, srcs=(FLAGS,), imm=0, fn=BRS["jbe"])],
    [MicroOp(BR, 72, srcs=(FLAGS,), imm=END, fn=BRS["jae"])],
    [MicroOp(BR, 76, srcs=(FLAGS,), imm=END, fn=BRS["ja"])],
    [MicroOp(BR, 80, srcs=(FLAGS,), imm=0, fn=BRS["je"])],
    [MicroOp(BR, 84, srcs=(FLAGS,), imm=END, fn=BRS["jne"])],
    [MicroOp(BR, 88, imm=END)],
    [MicroOp(UopKind.CALL, 92, dst=SP, srcs=(SP,), imm=0, size=8)],
    [MicroOp(CSEL, 96, dst=1, srcs=(2, 3, FLAGS), fn=SELS["csel.b"])],
    [MicroOp(CSEL, 100, dst=4, srcs=(5, 6, FLAGS), fn=SELS["csel.be"])],
    [MicroOp(CSEL, 104, dst=7, srcs=(8, 9, FLAGS), fn=SELS["csel.ae"])],
    [MicroOp(CSEL, 108, dst=10, srcs=(11, 12, FLAGS), fn=SELS["csel.a"])],
    [MicroOp(CSEL, 112, dst=13, srcs=(14, 15, FLAGS), fn=SELS["csel.e"])],
    [MicroOp(CSEL, 116, dst=16, srcs=(17, 18, FLAGS), fn=SELS["csel.ne"])],
    [MicroOp(LDA, 120, dst=2, srcs=(1,), imm=8, size=1, forwardable=True)],
    [MicroOp(LDA, 124, dst=3, srcs=(SP,), imm=-16, size=2)],
    [MicroOp(LDA, 128, dst=4, srcs=(5,), imm=0, size=4)],
    [MicroOp(LDA, 132, dst=6, srcs=(7,), imm=0x10, size=8)],
    [MicroOp(STA, 136, srcs=(1,), imm=8, size=1, forwardable=True, last=False),
     MicroOp(STD, 136, srcs=(2,), size=1, forwardable=True)],
    [MicroOp(STA, 140, srcs=(SP,), imm=-16, size=2, last=False),
     MicroOp(STD, 140, srcs=(3,), size=2)],
    [MicroOp(STA, 144, srcs=(5,), imm=0, size=4, last=False),
     MicroOp(STD, 144, srcs=(4,), size=4)],
    [MicroOp(STA, 148, srcs=(7,), imm=0x10, size=8, last=False),
     MicroOp(STD, 148, srcs=(6,), size=8)],
    [MicroOp(JR, 152, srcs=(20,))],
    [MicroOp(LDA, 156, dst=REG_RETTMP, dst2=SP, srcs=(SP,), size=8, last=False),
     MicroOp(JR, 156, srcs=(REG_RETTMP,), is_return=True)],
    [MicroOp(UopKind.FENCE, 160)],
    [MicroOp(UopKind.HALT, 164)],
    [MicroOp(ALU, 168, fn=isa._move)],
]


def test_decode_pins_every_mnemonic_field_by_field():
    p = assemble(DECODE_SOURCE)
    assert sorted(i.mnemonic for i in p.instructions) == sorted(isa._SIGNATURES)
    assert p.labels["end"] == END
    names = [f.name for f in dataclasses.fields(MicroOp)]
    for ins, want in zip(p.instructions, DECODED, strict=True):
        got = decode(ins)
        assert len(got) == len(want), ins
        for g, w in zip(got, want):
            for name in names:
                if name == "fn":
                    assert g.fn is w.fn, (ins, name)
                else:
                    assert (getattr(g, name), type(getattr(g, name))) == \
                        (getattr(w, name), type(getattr(w, name))), (ins, name)


# -- each operand text is parsed once per assemble call ----------------------

def test_repeated_operand_text_gives_equal_operands():
    p = assemble("top:\n    add r1, r2, r3\n    ld.8 r4, [sp-8]\n"
                 "    add r1, r2, r3\n    ld.4 r4, [sp-8]\n    jmp top\n")
    a, b, c, d, _ = p.instructions
    assert a.operands == c.operands == (Reg(1), Reg(2), Reg(3))
    assert b.operands == d.operands == (Reg(4), Mem(SP, -8))
    assert (c.pc, c.mnemonic, d.pc, d.mnemonic) == (8, "add", 12, "ld.4")
    assert assemble(disassemble(p)) == p


def test_repeated_bad_operand_text_is_reported_at_its_first_line():
    src = "    nop\n    add r1, r2, q\n    add r1, r2, q\n"
    with pytest.raises(AsmError) as e:
        assemble(src)
    assert (str(e.value), e.value.line, e.value.col) == \
        ("line 2, col 16: expected register, got 'q'", 2, 16)


def test_reused_operands_are_keyed_by_signature():
    src = "top:\n    movi r1, top\n  mov r1, top\n"
    p = assemble(src.replace("  mov r1, top\n", ""))
    assert p.instructions[0].operands == (Reg(1), Imm(0))
    with pytest.raises(AsmError) as e:
        assemble(src)
    assert (str(e.value), e.value.line, e.value.col) == \
        ("line 3, col 10: expected register, got 'top'", 3, 10)


@pytest.mark.parametrize("line,col,msg", [
    ("x: add r1, r2, zz", 15, "expected register, got 'zz'"),
    ("x: frob r1", 3, "unknown mnemonic 'frob'"),
    ("  x :  ld.8 r1, [q]", 16, "expected [reg], [reg+off] or [reg-off], got '[q]'"),
    ("x:\tjmp  nowhere", 8, "undefined label 'nowhere'"),
])
def test_errors_after_label_sugar_give_the_column_in_the_line(line, col, msg):
    with pytest.raises(AsmError) as e:
        assemble(f"    nop\n{line}\n")
    assert (str(e.value), e.value.line, e.value.col) == \
        (f"line 2, col {col}: {msg}", 2, col)


def test_label_operand_resolves_to_its_pc():
    p = assemble("    movi r1, done\n    jmp done\n    nop\ndone:\n    halt\n"
                 "    movi r2, done\n")
    assert p.labels == {"done": 12}
    assert p.instructions[0].operands == (Reg(1), Imm(12))
    assert p.instructions[1].operands == (Imm(12),)
    assert p.instructions[4].operands == (Reg(2), Imm(12))


# -- the frozen records store each argument in its own slot ------------------

@pytest.mark.parametrize("cls", [Imm, Mem, Instruction, MicroOp])
def test_isa_records_store_each_argument_in_its_own_field(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    values = [object() for _ in names]
    for record in (cls(*values), cls(**dict(zip(names, values)))):
        assert [getattr(record, name) for name in names] == values


@pytest.mark.parametrize("cls", [Imm, Mem, Instruction, MicroOp])
def test_isa_records_declare_the_defaults_their_constructor_takes(cls):
    declared = {f.name: f.default for f in dataclasses.fields(cls)}
    taken = {name: dataclasses.MISSING if p.default is p.empty else p.default
             for name, p in inspect.signature(cls).parameters.items()}
    assert taken == declared
    record = cls(*[object() for d in declared.values() if d is dataclasses.MISSING])
    for name, default in declared.items():
        if default is not dataclasses.MISSING:
            assert getattr(record, name) == default, name


# -- every spelling assembles the same way ----------------------------------

POOL = 400                  # criterion 10's first 400 programs


@functools.lru_cache(maxsize=None)
def criterion_10_source(k: int) -> str:
    """Program k of criterion 10, with r15 renamed r31 so `sp` can spell it."""
    src = random_program(random.Random(90000 + k), 170)
    return src.replace("r15,", "r31,").replace("r15\n", "r31\n").replace("r15]", "r31]")


def respell_operand(tok: str, rng: random.Random) -> str:
    if tok == "r31":
        return rng.choice(["r31", "sp"])
    if tok.startswith("["):                 # [rN] or [rN+off] / [rN-off]
        inner = tok[1:-1]
        base, sign, off = (inner.partition("+") if "+" in inner
                           else inner.partition("-"))
        base = respell_operand(base, rng)
        if not sign:
            sign, off = "+", "0"
        blank = lambda: rng.choice(["", " ", "\t", "  "])
        if off == "0" and rng.random() < 0.3:       # no offset written
            return f"[{blank()}{base}{blank()}]"
        return f"[{blank()}{base}{blank()}{sign}{blank()}{respell_operand(off, rng)}{blank()}]"
    if tok[0].isdigit() or tok[0] == "-":
        value = int(tok, 0)
        digits = abs(value)
        sign = "-" if value < 0 else rng.choice(["", "", "+"])
        return sign + rng.choice([str(digits), f"0x{digits:x}", f"0x{digits:X}",
                                  f"0X{digits:X}"])
    return tok


def respell(src: str, rng: random.Random) -> str:
    """Another spelling of `src`: blanks and tabs around commas, brackets and
    offsets, trailing comments, `sp` for r31, hex in either case, [rN+0] for
    [rN], and label sugar carrying the instruction after it."""
    out = []
    pending_label = None
    for line in src.splitlines():
        text = line.strip()
        if text.endswith(":"):
            if pending_label is not None:
                out.append(pending_label)
            pending_label = text
            continue
        if text.startswith(".") or not text:
            rendered = line
        else:
            mnem, _, rest = text.partition(" ")
            ops = [respell_operand(tok, rng) for tok in rest.split(", ")] if rest else []
            sep = rng.choice([",", ", ", " , ", "\t,\t", " ,"])
            rendered = (rng.choice(["    ", "\t", "", " "]) + mnem
                        + (rng.choice([" ", "\t", "   "]) + sep.join(ops) if ops else "")
                        + rng.choice(["", "", " ; note", "\t;x: y, [z]", ";", "  \t"]))
        if pending_label is not None:
            if rendered.strip() and not rendered.strip().startswith(".") \
                    and rng.random() < 0.5:
                rendered = pending_label + rng.choice([" ", "\t", ""]) + rendered.strip()
            else:
                out.append(pending_label)
            pending_label = None
        out.append(rendered)
    if pending_label is not None:
        out.append(pending_label)
    return "\n".join(out) + "\n"


def assembled(src: str, decoded: bool = True):
    """What assemble gives for `src` (the Program, its label operands and,
    if `decoded`, each instruction's micro-ops), or its AsmError's text and
    place."""
    try:
        p = assemble(src)
    except AsmError as e:
        return str(e), e.line, e.col
    return p, p.label_operands, decoded and [decode(i) for i in p.instructions]


def by_token_scan(monkeypatch, src: str, decoded: bool = True):
    """`assembled` with no line taken as plain: all take the token scan."""
    with monkeypatch.context() as m:
        m.setattr(isa, "_PLAIN", {})
        return assembled(src, decoded)


@pytest.mark.parametrize("block", range(4))
def test_every_spelling_assembles_as_the_canonical_text(monkeypatch, block):
    rng = random.Random(7100 + block)
    scanned = []
    scan = isa._scan_operands
    monkeypatch.setattr(isa, "_scan_operands",
                        lambda *args: scanned.append(args) or scan(*args))
    instructions = by_patterns = 0
    for k in range(block * POOL // 4, (block + 1) * POOL // 4):
        src = criterion_10_source(k)
        want = assembled(src)
        variant = respell(src, rng)
        assert variant != src
        scanned.clear()
        assert assembled(variant) == want, (k, variant)
        instructions += len(want[0].instructions)
        by_patterns += len(want[0].instructions) - len(scanned)
        assert by_token_scan(monkeypatch, variant) == want, (k, variant)
    assert by_patterns > 0.7 * instructions     # most spellings took the patterns


# operand texts at the edges of what the patterns take, by signature
EDGE_SPELLINGS = {
    "movi": ["r1, 5", "r1, -5", "r1, - 5", "r1, +-5", "r1, 08", "r1, 00", "r1, 0x", "r1, 0X1f",
             "r1, -0x10", "r1, 1_000", "r1, 0b101", "r1, 0o7", "r1, \u0665", "r1,5;x",
             "r1, 5 ;", "r1 ,5", "r1,, 5", "r1, 5,", "R1, 5", "r32, 5", "r01, 5", "sp, 5",
             "r1, top", "r1, _x", "r1,\t\t5\t"],
    "addi": ["r1, r2, 3", "r1, r2, -0", "r1, r2,3 ; c", "r31, sp, 0x8000000000000000",
             "r1, r2, 3, 4", "r1, r2"],
    "ld.8!": ["r1, [r2]", "r1, [ r2 + 8 ]", "r1, [r2+-8]", "r1, [r2 - 08]", "r1, [r2+0x]",
              "r1, [r2 +\t0X8]", "r1, [sp-0]", "r1, [r2,]", "r1, [[r2]]", "r1, r2",
              "r1, [r2+8] [r3]", "r1, [r2+ 8 ]x"],
    "add": ["r1, r2, r3", "r1,r2,r3", "r1, r2, r3 r4", "r1, r2, 3", "r10, r29, r30",
            "r3, r31, r32", "r1\u00a0, r2, r3"],
    "mov": ["r1, r2", "r1, sp", "r1 r2", "r1, 2"],
    "jr": ["r7", "r7 ; x", "[r7]", "7"],
    "halt": ["", " ; c", "r1", ";"],
}


@pytest.mark.parametrize("mnem", EDGE_SPELLINGS)
def test_edge_spellings_assemble_as_under_the_token_scan(monkeypatch, mnem):
    for text in EDGE_SPELLINGS[mnem]:
        src = f"top:\n    {mnem} {text}\n    halt\n"
        assert assembled(src) == by_token_scan(monkeypatch, src), src


# the dialect's characters, blanks the patterns do not take (a unit
# separator and a no-break space) and a letter outside ASCII
FUZZ_CHARS = "[],+-; \t:!._0123456789abcdefxXrsp\x1f\u00a0\u00e9"


@pytest.mark.parametrize("block", range(4))
def test_bad_text_raises_only_asm_error_and_as_the_token_scan_does(monkeypatch, block):
    """Single-character insertions, deletions and substitutions in criterion
    10's programs (respelled) either assemble or raise AsmError, and the
    pattern path gives what the token scan alone gives."""
    rng = random.Random(7200 + block)
    outcomes = {"assembled": 0, "error": 0}
    for k in range(block * POOL // 4, (block + 1) * POOL // 4):
        variant = respell(criterion_10_source(k), rng).splitlines()
        for _ in range(5):
            src = mutated(variant, rng)
            got = assembled(src, decoded=False)
            outcomes["error" if isinstance(got[0], str) else "assembled"] += 1
            assert by_token_scan(monkeypatch, src, decoded=False) == got, src
    assert min(outcomes.values()) > 100, outcomes


def mutated(lines, rng: random.Random) -> str:
    """`lines` with one character inserted, deleted or substituted."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    chars = list(lines[i])
    pos = rng.randint(0, len(chars))
    op = rng.random()
    if op < 0.4 or not chars:
        chars.insert(pos, rng.choice(FUZZ_CHARS))
    elif op < 0.7:
        del chars[min(pos, len(chars) - 1)]
    else:
        chars[min(pos, len(chars) - 1)] = rng.choice(FUZZ_CHARS)
    lines[i] = "".join(chars)
    return "\n".join(lines) + "\n"
