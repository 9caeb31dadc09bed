; Ghost write (ghost.scenario). An impossible path consumes an
; uninitialized stack slot as a pointer: the guard at gc1 predicts correctly
; and skips the initializer, the one at gc2 mispredicts into the store
; through the ghost pointer, which the attacker aimed at the return slot.
main:
    call victim
    halt
victim:
    movi r1, 0x10020
    ld.8 r2, [r1]
    cmpi r2, 0
gc1:
    je noinit
    movi r3, 0x10100
    st.8 r3, [sp+16]
noinit:
    cmpi r2, 0
gc2:
    je nostore
gload:
    ld.8 r4, [sp+16]
gstore:
    st.8 r13, [r4]
nostore:
    ret
gadget:
    movi r4, 0x21800
    ld.1 r5, [r4]
    shli r5, r5, 9
    add r6, r12, r5
    ld.1 r7, [r6]
    halt
.data 0x10000 rw 10 00 00 00 00 00 00 00
