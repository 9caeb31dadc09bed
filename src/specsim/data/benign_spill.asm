; Register-spill loop (benign_spill.scenario): stores immediately
; reloaded, the hot path that store-to-load blocking penalizes. Every spill
; access carries the forwardable mark. The dependency chain ahead of each
; spill delays retirement, so the store is still speculative when the reload
; wants it, and the late-resolving, never-taken guard keeps the reloads under
; a branch: both blocking policies pay their cost, the forwarding ones do not.
; The nop prologue stands in for a distinct link address: the arctic
; whitelist is keyed on load addresses, so this kernel must not alias the
; victims' code.
main:
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    ld.8 r6, [sp+8]
    movi r1, 24
    movi r2, 1
    movi r3, 2
    movi r9, 0
    movi r20, 0x7fffffffffffffff
loop:
    add r9, r9, r2
    add r9, r9, r3
    add r9, r9, r2
    add r9, r9, r3
    add r9, r9, r2
    add r9, r9, r3
    cmp r9, r20
guard:
    jae loopx
    st.8! r2, [sp+8]
    st.8! r3, [sp+16]
    ld.8! r6, [sp+8]
    ld.8! r7, [sp+16]
    add r2, r6, r7
    add r3, r7, r6
    subi r1, r1, 1
    cmpi r1, 0
bloop:
    jne loop
loopx:
    halt
