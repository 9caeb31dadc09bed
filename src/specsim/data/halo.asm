; Halo write (halo.scenario). A speculative loop overrun (the checked
; length at 0x10000 is zero but slow to load) consumes unsanitized entries of
; the index array; the overrun store at hstore lands on the spilled bound of
; the loop body's masked load gadget.
main:
    movi r1, 0x10000
    ld.8 r2, [r1]
    movi r5, 0
loop:
    cmp r5, r2
hcheck:
    jae done
hbody:
    shli r4, r5, 3
    add r3, r16, r4
    ld.8 r6, [r3]
hclamp:
    add r7, r17, r6
    shli r8, r5, 3
    add r9, r18, r8
    ld.8 r10, [r9]
hstore:
    st.8 r10, [r7]
    ld.8 r20, [r19]
    movi r25, 0
    subi r26, r25, 1
    cmp r21, r20
    csel.b r26, r26, r25
    and r27, r21, r26
    add r23, r14, r27
    ld.1 r24, [r23]
    shli r24, r24, 9
    add r28, r12, r24
    ld.1 r29, [r28]
    addi r5, r5, 1
    jmp loop
done:
    halt
.data 0x10000 rw 00 00 00 00 00 00 00 00
