package gpu

import (
	"fmt"
	"sync/atomic"

	"emerald/internal/emtrace"
	"emerald/internal/mem"
	"emerald/internal/shader"
	"emerald/internal/simt"
)

// Kernel is a GPGPU launch: the unified model runs it on the same SIMT
// cores as graphics work (the paper's core contribution).
type Kernel struct {
	Prog            *shader.Program
	Blocks          int
	ThreadsPerBlock int
	// ParamBase is the constant-bank address of the kernel parameters
	// (read via ldc).
	ParamBase   uint64
	SharedBytes int
}

type kernelState struct {
	k         Kernel
	nextBlock int
	// outstanding counts warps in flight; decremented from cluster
	// shards at warp retirement, so it is atomic.
	outstanding atomic.Int64
	onDone      func(cycles uint64)
	startCycle  uint64
	started     bool
}

// kernelEnv is one thread block's warp environment. Envs and their
// scratchpads are recycled per cluster: the block's last warp to retire
// (on the cluster's shard) returns the env to cl.freeEnvs, and
// dispatchBlock (serialized, after the shard phase) takes it from there.
type kernelEnv struct {
	g      *GPU
	cl     *cluster
	ks     *kernelState
	shared []byte
	live   int // warps of the block still resident
}

func (e *kernelEnv) AttrIn(lane, slot int) ([4]float32, uint64)     { return [4]float32{}, 0 }
func (e *kernelEnv) OutWrite(lane, slot int, val [4]float32) uint64 { return 0 }
func (e *kernelEnv) Tex(lane, unit int, u, v float32) ([4]float32, [4]uint64) {
	return [4]float32{}, [4]uint64{}
}
func (e *kernelEnv) ZAddr(int) uint64    { return 0 }
func (e *kernelEnv) CAddr(int) uint64    { return 0 }
func (e *kernelEnv) ConstBase() uint64   { return e.ks.k.ParamBase }
func (e *kernelEnv) SharedMem() []byte   { return e.shared }
func (e *kernelEnv) Memory() *mem.Memory { return e.g.Mem }
func (e *kernelEnv) Retired(w *simt.Warp) {
	e.ks.outstanding.Add(-1)
	if e.live--; e.live == 0 {
		e.ks = nil
		e.cl.freeEnvs = append(e.cl.freeEnvs, e)
	}
}

// LaunchKernel queues a compute kernel; onDone (optional) fires when the
// grid completes, with the cycles it occupied the GPU.
func (g *GPU) LaunchKernel(k Kernel, onDone func(cycles uint64)) error {
	if k.Prog == nil || k.Prog.Kind != shader.KindCompute {
		return fmt.Errorf("gpu: kernel needs a compute shader")
	}
	if k.Blocks <= 0 || k.ThreadsPerBlock <= 0 {
		return fmt.Errorf("gpu: kernel needs positive grid/block sizes")
	}
	if k.ThreadsPerBlock > 1024 {
		return fmt.Errorf("gpu: max 1024 threads per block")
	}
	g.kernels.PushBack(&kernelState{k: k, onDone: onDone})
	g.drained = false
	return nil
}

// tickKernels dispatches thread blocks of the oldest queued kernel
// (kernels execute in submission order).
func (g *GPU) tickKernels(cycle uint64) {
	if g.kernels.Len() == 0 {
		return
	}
	ks := *g.kernels.Front()
	if !ks.started {
		ks.started = true
		ks.startCycle = cycle
	}
	warpsPerBlock := (ks.k.ThreadsPerBlock + simt.WarpSize - 1) / simt.WarpSize

	// Round-robin block dispatch: one block per core per cycle at most.
	for ci := 0; ci < g.Cfg.Clusters && ks.nextBlock < ks.k.Blocks; ci++ {
		for k := 0; k < g.Cfg.CoresPerCluster && ks.nextBlock < ks.k.Blocks; k++ {
			core := g.clusters[ci].cores[k]
			if core.ActiveWarps()+warpsPerBlock > core.Cfg.MaxWarps ||
				!core.CanLaunch(ks.k.Prog) {
				continue
			}
			g.dispatchBlock(g.clusters[ci], core, ks, ks.nextBlock, warpsPerBlock)
			ks.nextBlock++
		}
	}

	if ks.nextBlock >= ks.k.Blocks && ks.outstanding.Load() == 0 {
		g.kernels.Pop()
		g.trace.Span1(emtrace.SrcGPU, "frontend", ks.k.Prog.Name,
			ks.startCycle, cycle, emtrace.Arg{Key: "blocks", Val: int64(ks.k.Blocks)})
		if ks.onDone != nil {
			ks.onDone(cycle - ks.startCycle)
		}
	}
}

func (g *GPU) dispatchBlock(cl *cluster, core *simt.Core, ks *kernelState, blockIdx, warps int) {
	var env *kernelEnv
	if n := len(cl.freeEnvs); n > 0 {
		env, cl.freeEnvs = cl.freeEnvs[n-1], cl.freeEnvs[:n-1]
	} else {
		env = &kernelEnv{g: g, cl: cl}
	}
	env.ks = ks
	// A block starts with a zeroed scratchpad, whoever held it before.
	if n := ks.k.SharedBytes; n > cap(env.shared) {
		env.shared = make([]byte, n)
	} else {
		env.shared = env.shared[:n]
		clear(env.shared)
	}
	g.blockSeq++
	blockID := g.blockSeq
	for w := 0; w < warps; w++ {
		base := w * simt.WarpSize
		var mask uint32
		var specials [simt.WarpSize]shader.Special
		for lane := 0; lane < simt.WarpSize; lane++ {
			tid := base + lane
			if tid >= ks.k.ThreadsPerBlock {
				break
			}
			mask |= 1 << lane
			specials[lane] = shader.Special{
				TID:   uint32(tid),
				CTAID: uint32(blockIdx),
				NTID:  uint32(ks.k.ThreadsPerBlock),
				WID:   uint32(w),
			}
		}
		if mask == 0 {
			continue
		}
		if _, err := core.Launch(ks.k.Prog, env, blockID, mask, specials, nil); err == nil {
			ks.outstanding.Add(1)
			env.live++
		}
	}
}
