package geom

// Texture is a CPU-side RGBA8 image destined for GPU texture memory.
type Texture struct {
	Width, Height int
	Pixels        []byte // RGBA8, row-major, R first
}

// NewTexture allocates a w x h RGBA8 texture.
func NewTexture(w, h int) *Texture {
	return &Texture{Width: w, Height: h, Pixels: make([]byte, w*h*4)}
}

// Set writes one texel.
func (t *Texture) Set(x, y int, r, g, b, a byte) {
	i := (y*t.Width + x) * 4
	t.Pixels[i] = r
	t.Pixels[i+1] = g
	t.Pixels[i+2] = b
	t.Pixels[i+3] = a
}

// Checker returns a w x h checkerboard with the given square size and two
// colors — high-frequency content that defeats texture-cache locality
// when sampled sparsely, matching typical game textures.
func Checker(w, h, square int, c0, c1 [4]byte) *Texture {
	t := NewTexture(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := c0
			if (x/square+y/square)%2 == 1 {
				c = c1
			}
			t.Set(x, y, c[0], c[1], c[2], c[3])
		}
	}
	return t
}

// Noise returns a deterministic pseudo-random RGB texture (xorshift).
func Noise(w, h int, seed uint32) *Texture {
	t := NewTexture(w, h)
	s := seed | 1
	next := func() byte {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		return byte(s)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			t.Set(x, y, next(), next(), next(), 255)
		}
	}
	return t
}

// Gradient returns a horizontal color gradient texture.
func Gradient(w, h int, from, to [4]byte) *Texture {
	t := NewTexture(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f := float32(x) / float32(w-1)
			lerp := func(a, b byte) byte { return byte(float32(a) + f*(float32(b)-float32(a))) }
			t.Set(x, y, lerp(from[0], to[0]), lerp(from[1], to[1]), lerp(from[2], to[2]), lerp(from[3], to[3]))
		}
	}
	return t
}
