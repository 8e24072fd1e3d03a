// Package models is TrioSim's tracer substitute: an analytic model zoo that
// constructs operator-level execution traces for every workload in the
// paper's evaluation (ResNet, DenseNet, VGG, GPT-2, BERT, T5, FLAN-T5,
// Llama-3.2-1B).
//
// The paper's tracer blends PyTorch Profiler output (operators + kernel
// times) with Execution Graph Observer output (tensor lists, categories,
// dims). Without GPUs to profile, this package produces traces with the same
// structure — operator table plus tensor table, with exact FLOPs and tensor
// shapes derived from the published architectures — and leaves the measured
// times zero. internal/hwsim then stamps times as the "measurement" step.
package models

import (
	"fmt"
	"sort"

	"triosim/internal/tensor"
	"triosim/internal/trace"
)

// Build constructs the operator-level trace skeleton for the named model at
// the given batch size. Times are zero until a hardware model stamps them.
func Build(name string, batch int) (*trace.Trace, error) {
	bf, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q", name)
	}
	if batch < 1 {
		return nil, fmt.Errorf("models: batch size %d", batch)
	}
	b := newBuilder(name, batch)
	bf(b)
	return b.finish(), nil
}

// Known reports whether name is in the model zoo.
func Known(name string) bool { return registry[name] != nil }

// List returns all model names in sorted order.
func List() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CNNs returns the image-classification model names in the paper's plotting
// order (DenseNets, ResNets, VGGs).
func CNNs() []string {
	return []string{
		"densenet121", "densenet161", "densenet169", "densenet201",
		"resnet18", "resnet34", "resnet50", "resnet101", "resnet152",
		"vgg11", "vgg13", "vgg16", "vgg19",
	}
}

// Transformers returns the NLP model names.
func Transformers() []string {
	return []string{"gpt2", "bert", "t5small", "flant5small", "llama32-1b"}
}

var registry = map[string]func(*builder){
	"resnet18":    func(b *builder) { buildResNet(b, []int{2, 2, 2, 2}, false) },
	"resnet34":    func(b *builder) { buildResNet(b, []int{3, 4, 6, 3}, false) },
	"resnet50":    func(b *builder) { buildResNet(b, []int{3, 4, 6, 3}, true) },
	"resnet101":   func(b *builder) { buildResNet(b, []int{3, 4, 23, 3}, true) },
	"resnet152":   func(b *builder) { buildResNet(b, []int{3, 8, 36, 3}, true) },
	"densenet121": func(b *builder) { buildDenseNet(b, 32, 64, []int{6, 12, 24, 16}) },
	"densenet161": func(b *builder) { buildDenseNet(b, 48, 96, []int{6, 12, 36, 24}) },
	"densenet169": func(b *builder) { buildDenseNet(b, 32, 64, []int{6, 12, 32, 32}) },
	"densenet201": func(b *builder) { buildDenseNet(b, 32, 64, []int{6, 12, 48, 32}) },
	"vgg11":       func(b *builder) { buildVGG(b, vgg11Cfg) },
	"vgg13":       func(b *builder) { buildVGG(b, vgg13Cfg) },
	"vgg16":       func(b *builder) { buildVGG(b, vgg16Cfg) },
	"vgg19":       func(b *builder) { buildVGG(b, vgg19Cfg) },
	"gpt2":        func(b *builder) { buildTransformer(b, gpt2Cfg) },
	"bert":        func(b *builder) { buildTransformer(b, bertCfg) },
	"t5small":     func(b *builder) { buildTransformer(b, t5SmallCfg) },
	"flant5small": func(b *builder) { buildTransformer(b, flanT5SmallCfg) },
	"llama32-1b":  func(b *builder) { buildTransformer(b, llama1BCfg) },
}

// act is a handle to a produced activation tensor and its dims.
type act struct {
	id   tensor.ID
	dims []int64
}

// pendingOp is a forward op awaiting finalization, with enough information
// to synthesize its backward counterpart.
type pendingOp struct {
	op trace.Op
	// bwdFLOPsFactor scales the fwd FLOPs to get the bwd FLOPs: 2 for ops
	// with weight gradients (input-grad + weight-grad matmuls), 1 for
	// elementwise/memory-bound ops.
	bwdFLOPsFactor float64
	// inputActDims are the dims of the primary activation input, used to
	// size the input-gradient tensor the backward op produces.
	inputActDims []int64
	weightID     tensor.ID
}

// builder accumulates forward ops and synthesizes the backward pass and
// optimizer step at finish time.
type builder struct {
	tr    *trace.Trace
	batch int64

	layer     int
	layerName string

	cur  act
	pend []pendingOp

	// layerWeights maps layer index -> weight tensor IDs for optimizer ops.
	layerWeights map[int][]tensor.ID
}

func newBuilder(model string, batch int) *builder {
	return &builder{
		tr:           trace.New(model, "", batch),
		batch:        int64(batch),
		layer:        -1,
		layerWeights: map[int][]tensor.ID{},
	}
}

// beginLayer starts a new named layer; subsequent ops belong to it.
func (b *builder) beginLayer(name string) {
	b.layer++
	b.layerName = name
}

// input creates the mini-batch input tensor and makes it the current
// activation. perSample are per-sample dims (the batch dim is prepended).
func (b *builder) input(perSample []int64, dt tensor.DType) {
	dims := append([]int64{b.batch}, perSample...)
	id := b.tr.Tensors.Add(tensor.Tensor{
		Dims: dims, DType: dt, Category: tensor.Input, BatchDim: 0,
	})
	b.cur = act{id: id, dims: dims}
}

func (b *builder) addActivation(dims []int64) tensor.ID {
	return b.tr.Tensors.Add(tensor.Tensor{
		Dims: append([]int64(nil), dims...), DType: tensor.Float32,
		Category: tensor.Activation, BatchDim: 0,
	})
}

func (b *builder) addWeight(dims []int64) tensor.ID {
	id := b.tr.Tensors.Add(tensor.Tensor{
		Dims: append([]int64(nil), dims...), DType: tensor.Float32,
		Category: tensor.Weight, BatchDim: -1,
	})
	b.layerWeights[b.layer] = append(b.layerWeights[b.layer], id)
	return id
}

// saveAct returns a handle to the current activation (for skip connections).
func (b *builder) saveAct() act {
	return act{id: b.cur.id, dims: append([]int64(nil), b.cur.dims...)}
}

// emitOn records one forward op reading activation in (plus extras and an
// optional weight) and producing a fresh activation with outDims. It returns
// the produced activation without changing the builder's current one.
func (b *builder) emitOn(in act, name string, flops float64, outDims []int64,
	weightDims []int64, parallelizable bool, bwdFactor float64,
	extraInputs ...tensor.ID) act {

	inputs := []tensor.ID{in.id}
	inputs = append(inputs, extraInputs...)
	var wid tensor.ID
	if weightDims != nil {
		wid = b.addWeight(weightDims)
		inputs = append(inputs, wid)
	}
	out := b.addActivation(outDims)
	op := trace.Op{
		Name:           name,
		Layer:          b.layer,
		LayerName:      b.layerName,
		Phase:          trace.Forward,
		FLOPs:          flops,
		Inputs:         inputs,
		Outputs:        []tensor.ID{out},
		Parallelizable: parallelizable,
	}
	b.pend = append(b.pend, pendingOp{
		op:             op,
		bwdFLOPsFactor: bwdFactor,
		inputActDims:   append([]int64(nil), in.dims...),
		weightID:       wid,
	})
	return act{id: out, dims: append([]int64(nil), outDims...)}
}

// emit is emitOn applied to (and advancing) the current activation.
func (b *builder) emit(name string, flops float64, outDims []int64,
	weightDims []int64, parallelizable bool, bwdFactor float64,
	extraInputs ...tensor.ID) {
	b.cur = b.emitOn(b.cur, name, flops, outDims, weightDims,
		parallelizable, bwdFactor, extraInputs...)
}

// finish emits forward ops, synthesizes the backward pass (reverse order)
// and the per-layer optimizer steps, then returns the completed trace.
func (b *builder) finish() *trace.Trace {
	for i := range b.pend {
		b.tr.Append(b.pend[i].op)
	}

	// Backward: reverse program order. Each backward op consumes the forward
	// op's output activation (plus weight) and produces an input-gradient
	// activation and, for weighted ops, a weight gradient.
	gradByWeight := map[tensor.ID]tensor.ID{}
	for i := len(b.pend) - 1; i >= 0; i-- {
		p := &b.pend[i]
		fwd := &p.op
		inputs := append([]tensor.ID(nil), fwd.Outputs...)
		var outputs []tensor.ID
		if p.weightID != 0 {
			inputs = append(inputs, p.weightID)
			wt := b.tr.Tensors.Get(p.weightID)
			gid := b.tr.Tensors.Add(tensor.Tensor{
				Dims: append([]int64(nil), wt.Dims...), DType: wt.DType,
				Category: tensor.Gradient, BatchDim: -1,
			})
			gradByWeight[p.weightID] = gid
			outputs = append(outputs, gid)
		}
		gin := b.tr.Tensors.Add(tensor.Tensor{
			Dims:     append([]int64(nil), p.inputActDims...),
			DType:    tensor.Float32,
			Category: tensor.Activation, BatchDim: 0,
		})
		outputs = append(outputs, gin)
		b.tr.Append(trace.Op{
			Name:           fwd.Name + "_bwd",
			Layer:          fwd.Layer,
			LayerName:      fwd.LayerName,
			Phase:          trace.Backward,
			FLOPs:          fwd.FLOPs * p.bwdFLOPsFactor,
			Inputs:         inputs,
			Outputs:        outputs,
			Parallelizable: fwd.Parallelizable,
		})
	}

	// Optimizer: one SGD step per layer that owns weights, ascending layer
	// order. FLOPs ~ 2 per parameter; the step is memory-bound.
	layers := make([]int, 0, len(b.layerWeights))
	for l := range b.layerWeights {
		layers = append(layers, l)
	}
	sort.Ints(layers)
	for _, l := range layers {
		ws := b.layerWeights[l]
		var inputs []tensor.ID
		var params int64
		for _, w := range ws {
			inputs = append(inputs, w)
			if g, ok := gradByWeight[w]; ok {
				inputs = append(inputs, g)
			}
			params += b.tr.Tensors.Get(w).NumElements()
		}
		b.tr.Append(trace.Op{
			Name:    "sgd_step",
			Layer:   l,
			Phase:   trace.Optimizer,
			FLOPs:   float64(2 * params),
			Inputs:  inputs,
			Outputs: ws,
		})
	}
	return b.tr
}

// MemoryBoundOps names the operators whose time is dominated by memory
// traffic rather than FLOPs. The hardware emulator uses this classification
// when stamping times; TrioSim's regression model discovers the distinction
// from the (FLOPs, bytes) feature split.
var MemoryBoundOps = map[string]bool{
	"relu": true, "batchnorm": true, "maxpool": true, "avgpool": true,
	"add": true, "concat": true, "softmax": true, "layernorm": true,
	"gelu": true, "embedding": true, "sgd_step": true,
	"relu_bwd": true, "batchnorm_bwd": true, "maxpool_bwd": true,
	"avgpool_bwd": true, "add_bwd": true, "concat_bwd": true,
	"softmax_bwd": true, "layernorm_bwd": true, "gelu_bwd": true,
	"embedding_bwd": true,
}

// IsMemoryBound reports whether the named operator is memory-bound.
func IsMemoryBound(name string) bool { return MemoryBoundOps[name] }
