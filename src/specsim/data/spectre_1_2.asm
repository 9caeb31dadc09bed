; Read-only overwrite (spectre_1_2.scenario). The speculative store at
; vstore targets the function-pointer slot on the read-only page 0x50000.
; Under lazy permission enforcement the corrupt pointer is forwarded to the
; load at vcall, and the indirect jump lands in the transmit gadget.
main:
    call victim
    halt
victim:
    movi r1, 0x10000
    ld.8 r2, [r1]
    cmp r10, r2
vcheck:
    jae vcall
vstore:
    add r3, r11, r10
    st.8 r13, [r3]
vcall:
    movi r4, 0x50000
    ld.8 r5, [r4]
    jr r5
fn_ok:
    halt
gadget:
    movi r4, 0x21800
    ld.1 r5, [r4]
    shli r5, r5, 9
    add r6, r12, r5
    ld.1 r7, [r6]
    halt
.data 0x10000 rw 10 00 00 00 00 00 00 00
