package shader

// Standard shader library: the programs the GL layer binds for the
// paper's workloads. They follow fixed conventions shared with the GPU
// model:
//
// Uniform (constant bank) byte layout:
//
//	[0..63]   MVP matrix, column-major float32 x16
//	[64..75]  light direction (vec3)
//	[80]      blend alpha
//
// Vertex input slots: 0 = position (x,y,z,1), 1 = normal, 2 = uv.
// Vertex output / fragment varying slots: 0 = clip position,
// 1 = normal, 2 = uv.

// VSTransform is the standard vertex shader: clip = MVP * position,
// passing normal and uv through. Its 16 constant loads and 16 multiply-
// adds model a realistic transform cost on the SIMT pipeline.
var VSTransform = MustAssemble("vs_transform", KindVertex, `
	attr4 r0, 0        ; position (w=1 supplied by vertex fetch)
	; load MVP (column-major): element k at byte offset 4k
	ldc r4,  [0]
	ldc r5,  [16]
	ldc r6,  [32]
	ldc r7,  [48]
	ldc r8,  [4]
	ldc r9,  [20]
	ldc r10, [36]
	ldc r11, [52]
	ldc r12, [8]
	ldc r13, [24]
	ldc r14, [40]
	ldc r15, [56]
	ldc r16, [12]
	ldc r17, [28]
	ldc r18, [44]
	ldc r19, [60]
	; clip.x
	mul r20, r0, r4
	mad r20, r1, r5, r20
	mad r20, r2, r6, r20
	mad r20, r3, r7, r20
	; clip.y
	mul r21, r0, r8
	mad r21, r1, r9, r21
	mad r21, r2, r10, r21
	mad r21, r3, r11, r21
	; clip.z
	mul r22, r0, r12
	mad r22, r1, r13, r22
	mad r22, r2, r14, r22
	mad r22, r3, r15, r22
	; clip.w
	mul r23, r0, r16
	mad r23, r1, r17, r23
	mad r23, r2, r18, r23
	mad r23, r3, r19, r23
	out4 0, r20
	attr4 r24, 1       ; normal
	out4 1, r24
	attr4 r28, 2       ; uv
	out4 2, r28
	exit
`)

// FSTexturedEarlyZ is the standard opaque fragment shader: in-shader
// early depth test (paper Figure 3, L), texture sample, diffuse shading,
// framebuffer and depth writes.
var FSTexturedEarlyZ = MustAssemble("fs_textured_earlyz", KindFragment, `
	; early Z (LESS): kill if fragZ >= bufferZ
	movs r20, %fz
	zld  r21
	setp.ge.f p3, r20, r21
	@p3 kill
	attr4 r0, 1        ; normal
	attr4 r4, 2        ; uv
	tex4  r8, 0, r4, r5
	; diffuse: max(dot(N, L), 0.25)
	ldc  r12, [64]
	ldc  r13, [68]
	ldc  r14, [72]
	mul  r15, r0, r12
	mad  r15, r1, r13, r15
	mad  r15, r2, r14, r15
	abs  r15, r15
	max  r15, r15, 0.25
	mul  r8,  r8,  r15
	mul  r9,  r9,  r15
	mul  r10, r10, r15
	pack4 r16, r8
	fbst  r16
	zst   r20
	exit
`)

// FSTexturedLateZ performs the depth test at the end of the shader
// (paper Figure 3, N) — the path used when a shader might discard
// fragments or modify depth.
var FSTexturedLateZ = MustAssemble("fs_textured_latez", KindFragment, `
	attr4 r0, 1
	attr4 r4, 2
	tex4  r8, 0, r4, r5
	ldc  r12, [64]
	ldc  r13, [68]
	ldc  r14, [72]
	mul  r15, r0, r12
	mad  r15, r1, r13, r15
	mad  r15, r2, r14, r15
	abs  r15, r15
	max  r15, r15, 0.25
	mul  r8,  r8,  r15
	mul  r9,  r9,  r15
	mul  r10, r10, r15
	; late Z
	movs r20, %fz
	zld  r21
	setp.ge.f p3, r20, r21
	@p3 kill
	pack4 r16, r8
	fbst  r16
	zst   r20
	exit
`)

// FSTexturedBlend is the translucent fragment shader: depth test
// (read-only), texture, then src-alpha blending against the framebuffer
// (paper Figure 3, M) using the uniform alpha at byte 80.
var FSTexturedBlend = MustAssemble("fs_textured_blend", KindFragment, `
	movs r20, %fz
	zld  r21
	setp.ge.f p3, r20, r21
	@p3 kill
	attr4 r0, 1
	attr4 r4, 2
	tex4  r8, 0, r4, r5
	ldc   r12, [80]     ; alpha
	fbld  r16
	unpk4 r24, r16
	mov   r13, 1.0
	sub   r13, r13, r12
	mul   r8,  r8,  r12
	mad   r8,  r24, r13, r8
	mul   r9,  r9,  r12
	mad   r9,  r25, r13, r9
	mul   r10, r10, r12
	mad   r10, r26, r13, r10
	mov   r11, 1.0
	pack4 r16, r8
	fbst  r16
	exit
`)

// FSFlat writes a constant color (from uniform bytes 64..76 reused as
// RGBA) with early Z — the cheapest fragment path, used by examples and
// the M4 "triangles" model.
var FSFlat = MustAssemble("fs_flat", KindFragment, `
	movs r20, %fz
	zld  r21
	setp.ge.f p3, r20, r21
	@p3 kill
	ldc  r8,  [64]
	ldc  r9,  [68]
	ldc  r10, [72]
	ldc  r11, [76]
	pack4 r16, r8
	fbst  r16
	zst   r20
	exit
`)

// KernelSAXPY computes y[i] = a*x[i] + y[i] over n elements. Parameter
// block (constant bank): [0]=xBase, [4]=yBase, [8]=a, [12]=n.
var KernelSAXPY = MustAssemble("saxpy", KindCompute, `
	movs r0, %ctaid
	movs r1, %ntid
	movs r2, %tid
	imad r3, r0, r1, r2     ; global index
	ldc  r4, [12]           ; n
	setp.ge.i p0, r3, r4
	@p0 exit
	shl  r5, r3, 2
	ldc  r6, [0]            ; xBase
	ldc  r7, [4]            ; yBase
	iadd r8, r6, r5
	iadd r9, r7, r5
	ldg  r10, [r8]
	ldg  r11, [r9]
	ldc  r12, [8]           ; a
	mad  r13, r10, r12, r11
	stg  [r9], r13
	exit
`)

// KernelVecAdd computes c[i] = a[i] + b[i]. Parameters: [0]=a, [4]=b,
// [8]=c, [12]=n.
var KernelVecAdd = MustAssemble("vecadd", KindCompute, `
	movs r0, %ctaid
	movs r1, %ntid
	movs r2, %tid
	imad r3, r0, r1, r2
	ldc  r4, [12]
	setp.ge.i p0, r3, r4
	@p0 exit
	shl  r5, r3, 2
	ldc  r6, [0]
	ldc  r7, [4]
	ldc  r8, [8]
	iadd r9,  r6, r5
	iadd r10, r7, r5
	iadd r11, r8, r5
	ldg  r12, [r9]
	ldg  r13, [r10]
	add  r14, r12, r13
	stg  [r11], r14
	exit
`)

// KernelReduceAtomic sums x[0..n) into *out using L2 atomics.
// Parameters: [0]=xBase, [4]=outAddr, [12]=n.
var KernelReduceAtomic = MustAssemble("reduce_atomic", KindCompute, `
	movs r0, %ctaid
	movs r1, %ntid
	movs r2, %tid
	imad r3, r0, r1, r2
	ldc  r4, [12]
	setp.ge.i p0, r3, r4
	@p0 exit
	shl  r5, r3, 2
	ldc  r6, [0]
	iadd r7, r6, r5
	ldg  r8, [r7]
	ldc  r9, [4]
	atom.add r10, [r9], r8
	exit
`)

// registry maps program names to the built-in shader library, letting
// the trace replayer rebind programs by name.
var registry = map[string]*Program{}

func init() {
	for _, p := range []*Program{
		VSTransform, FSTexturedEarlyZ, FSTexturedLateZ, FSTexturedBlend,
		FSFlat, KernelSAXPY, KernelVecAdd, KernelReduceAtomic,
	} {
		registry[p.Name] = p
	}
}

// ByName returns a built-in shader program, or nil.
func ByName(name string) *Program { return registry[name] }
