import dataclasses
import random

import pytest

from specsim import isa
from specsim.isa import (AsmError, Imm, Instruction, Mem, MicroOp, Reg, UopKind,
                         assemble, decode, disassemble, REG_RETTMP, SP)
from specsim.scenarios import (ALL_MITIGATIONS, BUILDERS, MITIGATION_SITES,
                               build_scenario)
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
.data 0x10000 ro de ad be ef
"""
    p = assemble(src)
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
    """Every operand string the assembler splits while `build()` runs."""
    seen = []
    split = isa._split_operands

    def record(text):
        seen.append(text)
        return split(text)
    with monkeypatch.context() as m:
        m.setattr(isa, "_split_operands", record)
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
            if (mitigation != "none"
                    and getattr(MITIGATION_SITES[name], mitigation) is None):
                continue
            texts += operand_texts(
                monkeypatch, lambda: build_scenario(name, mitigation=mitigation))
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
