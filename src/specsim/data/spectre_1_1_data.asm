; Bounds check bypass on stores, data variant (spectre_1_1_data.scenario).
; The speculative store at astore overwrites the spilled bound at 0x30800,
; which the exact-masked load gadget at bbody compares against, so the mask
; passes an out-of-bounds index.
main:
    movi r1, 0x10000
    ld.8 r2, [r1]
    cmp r10, r2
acheck:
    jae part_b
astore:
    add r3, r11, r10
    st.8 r13, [r3]
part_b:
    movi r20, 0x30800
    ld.8 r21, [r20]
    cmp r22, r21
bcheck:
    jae done
bbody:
    movi r25, 0
    subi r26, r25, 1
    cmp r22, r21
    csel.b r26, r26, r25
    and r27, r22, r26
    add r23, r14, r27
    ld.1 r24, [r23]
    shli r24, r24, 9
    add r28, r12, r24
    ld.1 r29, [r28]
done:
    halt
.data 0x10000 rw 10 00 00 00 00 00 00 00
