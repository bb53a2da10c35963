package zoo

import (
	"fmt"

	"repro/internal/model"
)

// GPTConfig describes a GPT-style decoder-only transformer. Its blocks use
// the same operation vocabulary as BERT (§5.2) — Q/K/V/O projections, Logit
// and Attend, LayerNorm, two FC layers — with pre-norm ordering and a tied
// language-model head, so GPT↔GPT transformations reshape exactly like the
// BERT ladder and GPT↔BERT pairs substitute attention-for-attention.
type GPTConfig struct {
	Name   string
	Blocks int
	Hidden int
	Vocab  int
	// BaseScope shares pre-trained weights across variants (e.g. a distilled
	// model re-using teacher embeddings); defaults to Name.
	BaseScope string
}

const gptMaxPos = 1024

// GPT builds the decoder described by cfg.
func GPT(cfg GPTConfig) *model.Graph {
	base := cfg.BaseScope
	if base == "" {
		base = cfg.Name
	}
	b := model.NewBuilder(cfg.Name, "gpt", base)
	h := cfg.Hidden
	b.Add(model.Operation{Name: "input", Type: model.OpInput, Shape: model.Shape{OutChannels: h}})
	tok := b.Add(model.Operation{Name: "emb.token", Type: model.OpEmbedding,
		Shape: model.Shape{InChannels: cfg.Vocab, OutChannels: h}})
	b.SetTail(0)
	pos := b.Add(model.Operation{Name: "emb.pos", Type: model.OpEmbedding,
		Shape: model.Shape{InChannels: gptMaxPos, OutChannels: h}})
	b.AddFrom(model.Operation{Name: "emb.add", Type: model.OpAdd, Shape: model.Shape{OutChannels: h}}, tok, pos)
	b.Add(model.Operation{Name: "emb.drop", Type: model.OpDropout, Shape: model.Shape{OutChannels: h}})

	for blk := 0; blk < cfg.Blocks; blk++ {
		tag := fmt.Sprintf("blk%d", blk)
		entry := b.Tail()[0]
		// Pre-norm attention.
		ln1 := b.AddFrom(model.Operation{Name: tag + ".ln1", Type: model.OpLayerNorm,
			Shape: model.Shape{OutChannels: h}}, entry)
		q := b.AddFrom(model.Operation{Name: tag + ".query", Type: model.OpQuery,
			Shape: model.Shape{InChannels: h, OutChannels: h}}, ln1)
		k := b.AddFrom(model.Operation{Name: tag + ".key", Type: model.OpKey,
			Shape: model.Shape{InChannels: h, OutChannels: h}}, ln1)
		v := b.AddFrom(model.Operation{Name: tag + ".value", Type: model.OpValue,
			Shape: model.Shape{InChannels: h, OutChannels: h}}, ln1)
		logit := b.AddFrom(model.Operation{Name: tag + ".logit", Type: model.OpLogit,
			Shape: model.Shape{OutChannels: h}}, q, k)
		att := b.AddFrom(model.Operation{Name: tag + ".attend", Type: model.OpAttend,
			Shape: model.Shape{OutChannels: h}}, logit, v)
		b.AddFrom(model.Operation{Name: tag + ".output", Type: model.OpAttnOutput,
			Shape: model.Shape{InChannels: h, OutChannels: h}}, att)
		res1 := b.AddMerge(tag+".add1", h, b.Tail()[0], entry)
		// Pre-norm MLP.
		b.AddFrom(model.Operation{Name: tag + ".ln2", Type: model.OpLayerNorm,
			Shape: model.Shape{OutChannels: h}}, res1)
		b.Dense(tag+".fc1", h, 4*h)
		b.Add(model.Operation{Name: tag + ".gelu", Type: model.OpGELU, Shape: model.Shape{OutChannels: 4 * h}})
		b.Dense(tag+".fc2", 4*h, h)
		b.AddMerge(tag+".add2", h, b.Tail()[0], res1)
	}
	b.Add(model.Operation{Name: "final.ln", Type: model.OpLayerNorm, Shape: model.Shape{OutChannels: h}})
	b.Dense("lm_head", h, cfg.Vocab)
	b.Add(model.Operation{Name: "softmax", Type: model.OpSoftmax, Shape: model.Shape{OutChannels: cfg.Vocab}})
	b.Output(h)
	return b.Graph()
}

// gptVariants follows the published GPT-2 ladder plus DistilGPT-2 (which
// shares the teacher's embedding scope).
var gptVariants = []GPTConfig{
	{Name: "distilgpt2", Blocks: 6, Hidden: 768, Vocab: 50257, BaseScope: "gpt2"},
	{Name: "gpt2", Blocks: 12, Hidden: 768, Vocab: 50257},
	{Name: "gpt2-medium", Blocks: 24, Hidden: 1024, Vocab: 50257},
}

// GPTZoo returns the registry of GPT-style decoder models.
func GPTZoo() *Registry {
	r := NewRegistry()
	for _, v := range gptVariants {
		v := v
		r.Register(v.Name, func() *model.Graph { return GPT(v) })
	}
	return r
}
