package cpu

// Syscall codes serviced by the SoC's driver layer (the goldfish-pipe
// substitute of paper Figure 8b). Arguments pass in r2, results return
// in r1.
const (
	// SysFrameSubmit hands the frame's draw-call stream to the GPU
	// driver; returns a fence id.
	SysFrameSubmit = 1
	// SysFenceDone polls fence r2; returns 1 when the GPU finished.
	SysFenceDone = 2
	// SysWaitVsync blocks until the next frame period tick.
	SysWaitVsync = 3
)

// AppFrameLoop is the full-system workload's application core program —
// the Android app of Case Study I, reproduced mechanically as a
// double-buffered game loop: per frame it (1) streams over the scene
// working set (game logic / scene update: memory-heavy read-modify-
// write) *while the GPU renders the previous frame* — the CPU/GPU
// overlap whose arbitration DASH decides — then (2) writes the command
// buffer (driver work), (3) waits for the previous frame's fence (the
// inter-IP dependency trace-driven studies cannot see), (4) submits the
// new frame, and (5) sleeps until vsync.
//
// Register contract (set before starting the core):
//
//	r10 = working-set base address
//	r11 = working-set size in bytes
//	r12 = command buffer base address
//	r13 = command buffer bytes
//	r14 = scene-update passes per frame
var AppFrameLoop = MustAssemble("app_frame_loop", `
	movi r0, 0
	movi r6, 0          ; previous frame's fence (0 = signaled)
frame:
	; ---- phase 1: scene update (overlaps previous frame's render) ----
	mov  r7, r14
scene_pass:
	mov  r2, r10        ; ptr
	mov  r3, r11        ; bytes left
scene_loop:
	ld   r4, [r2]
	addi r4, r4, 3
	mul  r4, r4, r4
	st   [r2], r4
	addi r2, r2, 64     ; one cache line per iteration
	addi r3, r3, -64
	blt  r0, r3, scene_loop
	addi r7, r7, -1
	blt  r0, r7, scene_pass

	; ---- phase 2: driver work (fill command buffer) ----
	mov  r2, r12
	mov  r3, r13
drv_loop:
	st   [r2], r3
	addi r2, r2, 16
	addi r3, r3, -16
	blt  r0, r3, drv_loop

	; ---- phase 3: wait for the previous frame's fence ----
fence_wait:
	mov  r2, r6
	sys  2              ; r1 = 1 when done
	beq  r1, r0, fence_wait

	; ---- phase 4: submit this frame ----
	sys  1              ; r1 = fence id
	mov  r6, r1

	; ---- phase 5: sleep until vsync ----
	sys  3
	jmp  frame
`)

// BackgroundTask is a tunable secondary-core workload: a compute/memory
// loop whose memory intensity is set by r12 (ALU iterations between
// loads; small = intensive). Used to populate the TCM clustering study.
//
// Register contract:
//
//	r10 = working-set base
//	r11 = working-set size in bytes
//	r12 = ALU iterations per memory access
//	r13 = stride in bytes (0 defaults to 256)
var BackgroundTask = MustAssemble("background_task", `
	movi r0, 0
	movi r3, 256
	beq  r13, r0, use_default
	mov  r3, r13
use_default:
	mov  r2, r10
outer:
	; memory access
	ld   r4, [r2]
	addi r4, r4, 1
	st   [r2], r4
	add  r2, r2, r3     ; stride (defeats locality when > line size)
	; wrap pointer
	mov  r5, r10
	add  r5, r5, r11
	blt  r2, r5, no_wrap
	mov  r2, r10
no_wrap:
	; ALU burn
	mov  r6, r12
alu:
	mul  r7, r6, r6
	addi r6, r6, -1
	blt  r0, r6, alu
	jmp  outer
`)

// IdleTask is an idle core's program. Android's idle loop executes WFI,
// which stops the core until an interrupt arrives. WFI; no interrupt
// source exists, so it is `halt`: from then on the core's NextWake is
// mem.NeverWake and its owner never ticks it again.
var IdleTask = MustAssemble("idle_task", `
	movi r0, 0
	halt
`)
