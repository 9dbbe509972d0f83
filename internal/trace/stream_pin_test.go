package trace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// streamDigest hashes every field of insts, little-endian, in order.
func streamDigest(insts []trace.Inst) string {
	h := sha256.New()
	b := make([]byte, 0, 33)
	flag := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	for _, in := range insts {
		b = binary.LittleEndian.AppendUint64(b[:0], in.PC)
		b = binary.LittleEndian.AppendUint64(b, in.Addr)
		b = binary.LittleEndian.AppendUint64(b, in.Target)
		b = binary.LittleEndian.AppendUint16(b, uint16(in.Src1))
		b = binary.LittleEndian.AppendUint16(b, uint16(in.Src2))
		b = binary.LittleEndian.AppendUint16(b, uint16(in.Dst))
		b = append(b, byte(in.Kind), flag(in.Taken), flag(in.Complex))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGeneratorStreamPinned pins the synthetic instruction stream itself:
// the SHA-256 of every field of the first 50,000 instructions of each
// SPEC2006 and Parallel profile, at seed 42 on streams 0 and 3, drawn
// one at a time through Next and in odd-sized batches through NextBatch.
// Every result in the repository is a function of this stream, so a
// faster generator must reproduce it exactly; recordings must replay it
// exactly too (TestReplayMatchesGenerator, FuzzRecordingRoundTrip).
func TestGeneratorStreamPinned(t *testing.T) {
	const n, seed = 50_000, 42
	pins := []struct {
		profile string
		stream  int
		sha     string
	}{
		{"Astar", 0, "c3d1ecd64b0ceefded56b3c524dc8704bf1b3ed721b78a76c3f81857f3dcfedf"},
		{"Astar", 3, "76b6d17beef78acafbff03d1d5fc0896257f68cee05d31520668960453aa75df"},
		{"Bzip2", 0, "82d4bb72c8af30225fc493840397c2004278e812071516d4c389c02acc9ac24f"},
		{"Bzip2", 3, "e5b28b1a86e2a47d54eb9016172877cde5cf94a19b2daffa5882fcf49aaac823"},
		{"Calculix", 0, "728deae648262a1cbade33fea15087beb773d60e172c914568c5d85311b2c2ac"},
		{"Calculix", 3, "e6ac4f2c9ea38d22dea9d616d9914d81dd4b71e09f11cbb70ce446873f15cb27"},
		{"Dealii", 0, "90f5fa4d7ca94b6ece3c5e9070c929a74b20b29c0e98637aa2d05a55d66f2c9e"},
		{"Dealii", 3, "e14be858d01b954e4c56c3a61d4f1e43013759f6f572ebf60e4052323b3ee6a0"},
		{"Gamess", 0, "b2020571fb04e46f6390dddde457da207e9c8455d6a948b590decee2d09e3851"},
		{"Gamess", 3, "068775f49ec0e7eb8ca80fbbfd451f257a4868191cf69f3472dd8f001bbcf984"},
		{"Gcc", 0, "b295305cedee495c40b3f14b173720bfae25251463bf0e5cbdb9b3c341dc6b61"},
		{"Gcc", 3, "573ea59c5d6128f521d91f80e12d18119aabc349f5b682bd88ce61658ee720a1"},
		{"Gems", 0, "7ce9e912f560085ff58a59293599488428836852037c13fe2662179edebad297"},
		{"Gems", 3, "64de1d2016a098455b643637dcf7af5f628baa16c9bca57718deb9f50f13ffe1"},
		{"Gobmk", 0, "8d2f4fc57f5f347008241a79f36405f5fdd41662a9acb1cad01a07f6d013e686"},
		{"Gobmk", 3, "354c387a25edd8272e2c70d93387740dc9ad05dd589bd7abe3d5d11577d404a9"},
		{"Gromacs", 0, "3df691916cb9a67da0d6bfd4179356d6846210a9d63c7fc2a5b5023901d7a993"},
		{"Gromacs", 3, "914f592e110f76ff0322e1df1400b5124c8ef2e8e34c149712cfb5d609f78186"},
		{"H264Ref", 0, "8db3d9789cdd6d84433f648778d422042445a790c48972dfdcc3142c8a1ae19d"},
		{"H264Ref", 3, "dc5990318c772dd794d0cf990fdccaabb1ce2eda3189204c5364735af168c34b"},
		{"Hmmer", 0, "81732801372f0c9f440659ce4d1e3abba1733e83d379a18e14a1b99fbda99010"},
		{"Hmmer", 3, "3edbf98dcea2c5648a771f78e62e8473c253a74a9c1fc00e328704cb6e2b0a73"},
		{"Lbm", 0, "c9e6bf4234bd13f1ad5f1f99e0ec6957c8c9d30b34cde9da4c70aa84df00a3f0"},
		{"Lbm", 3, "8020a19a70b852ab91e0850957ccc30dbeb9359f9385501fb7c4c82e6249ea2f"},
		{"Libquantum", 0, "155644a867d6340a789b2241e9bdf05a9a4003731129f9a5299bc42ae05f169c"},
		{"Libquantum", 3, "f7934d9b53b4a29c8941d088aea83d7073c94efb2d5ffff4a2d53ed051dd98f7"},
		{"Mcf", 0, "a4f2410187dde27b6dacf78f6c79907baef3be8483e745917f5301da40326a0c"},
		{"Mcf", 3, "69c356267a951418512df0456f95a953d1c168e7280ea01beba73b42080fc916"},
		{"Milc", 0, "5435cf387f9ac9418a2f2db1b663b95cb52bc22ca46e2e1ff0aec3d50f7c62e1"},
		{"Milc", 3, "488ccc02317af624ca5661757163e3e5720d917d7a567aaed324cf8669b5e5e5"},
		{"Namd", 0, "6e7d608c7e7c1d32ae194b166944d03acdf4506f8723a47bfb13a4a178b47ce4"},
		{"Namd", 3, "b3253a11ee8fa32bd45154278f70c1d7e7f2beb7d863ced564270210d78d5ffb"},
		{"Omnetpp", 0, "2652a892505aae840a070e604b3d95dcacf7be79ec09b969a512554b07b98a50"},
		{"Omnetpp", 3, "ea8a9e4553ce642089df760634dd2e4e2ee3739657de0948a70fa53268d94483"},
		{"Povray", 0, "65dbefcc9357dff78859e37def24584ef1a0518dee900befff99e128c9cbc59c"},
		{"Povray", 3, "7d3b305141d82eb825e888c61587466518745831d525384f8d63aba59ee17895"},
		{"Sjeng", 0, "157b8ba57008fbfc131ad64fee43d09b2a956dc2ede7c151fbb62854dc15bd10"},
		{"Sjeng", 3, "a3746703bfd5309aacd1b19e8e50695f545a86da161d5df15ef7d6e0cc87f000"},
		{"Soplex", 0, "5ea740893602b21cc08b46523e9928f567d623830a8c63a3797ec9ba3de1f005"},
		{"Soplex", 3, "249d3d1f07deeb4d810f3298ddd2e83eb5e9fd473bca4453ef29d3af26998464"},
		{"Xalancbmk", 0, "0b62395eeb144eed2cb0bc72b0ff0dbe3803e425c84d6fc4474d9b9febd8bc93"},
		{"Xalancbmk", 3, "d9cb0d280150191507caade3c6c093840bd507652e67f4b3a93f9adabce6e2ee"},
		{"Barnes", 0, "75e6724f87064c3790e673a5b49b0135d89e2b10d5e8eb0d2e4f77ccef3e9d25"},
		{"Barnes", 3, "f77bd05560a7f0e40c8b3e5a5134305eda8273f630dd649ad6d37f7cb1f17bf8"},
		{"Blackscholes", 0, "ecdeb7b6cada9d33b94dba2ca655edf825be47b829935f77208e6dd670bdb6ea"},
		{"Blackscholes", 3, "adf84630c938485c007bff8d66c741346cbe1fd8b1e223e6dedc270c0de77174"},
		{"Canneal", 0, "a3e837880155ee5d0b27ba4283905ddbb38efb731d62f103d586df16fdd96b70"},
		{"Canneal", 3, "65575bc9b67cb8e92a94801361c6acb2e3e6364dd6ddca1cb4bcde52a5a3bcc5"},
		{"Cholesky", 0, "7b5e6f366223d3ff20cc4d87002723d6f0429d29eb364c5ed4e4524eab64f151"},
		{"Cholesky", 3, "c50fa4dcfd93398174f9824ced861fc59cd5a0723473c3fbcc6d7c97bc07c67e"},
		{"Fft", 0, "3a1f3b75b8c85ebc14da766ed43aecdd9775cbf99d0614589f044edebffcf08f"},
		{"Fft", 3, "00b8a2c16b3a819421a8ac0c268c459f964cb8d657bf99dbaf8609e8ae5d77cb"},
		{"Fluidanimate", 0, "1ac9d770aeb3bc9ec039b447d26b79e6de71577a01bd0e8bdb7d9b76f48897d4"},
		{"Fluidanimate", 3, "37267349ec8ecad166dc3d07bb060e2af44799f2bbf504903a2c93aca7f03efd"},
		{"Fmm", 0, "e66a062a72e69691b174cc189aeae31672ce90a600510d22997d41c3bb1f0003"},
		{"Fmm", 3, "85f387ba397008f58e741141f1d948ba4392dd45d6542d7848cfc03ebd0953f7"},
		{"Lu", 0, "795f670c1e3363d465400248a0e085a3f1f4cdb3fe874e8d64b18fa1bc0c4f2b"},
		{"Lu", 3, "7b955abec5257f17feafa0d0ee6b79795a1ae1206d9b6f513bb4e50de20ec66b"},
		{"Ocean", 0, "349ae6af108ea1b7bad280f7f650b3942ef5a5770398c649741cd087c519072f"},
		{"Ocean", 3, "b697fc374b420cfccfd425fb9f6e09de9c7b4ffd89fa4d44bb9bd4eefc8ba034"},
		{"Radiosity", 0, "8543470fd1b76b63127557e4b889742f587aa23f2e2c916b84bbb6a7d7cc8f63"},
		{"Radiosity", 3, "7c9cb8270234cf7aca81ef0fde76d2210596f935b49d2b307b05b7b0d43e17c3"},
		{"Radix", 0, "3ca52f9ee8a08c9a7bd09c385e37681b2e20fe0c568eca2ea2dd1b5448912620"},
		{"Radix", 3, "934ed2ef5b4fdd49cf0e34b3c4cea061f80bc5b008b27596dacebcc1e0d81548"},
		{"Raytrace", 0, "c0275831b62daeb0c95e663833f5de4805e0041f87cf5e753508242b14fec10b"},
		{"Raytrace", 3, "d72454bcdcc8a4b9e25fc12e5bd5f5bbf3f66a37e8642db35f138b8b28503c0e"},
		{"Streamcluster", 0, "9016def96f8f8c1fb6946bd90d8509b92a4d1105378a888f34e31f15d72b4e29"},
		{"Streamcluster", 3, "f92987c32497f9f14e048d07e6746b9205c9c6e5bf588894414968b07c87fb5a"},
		{"Water-Nsquared", 0, "835790e28eb56a4dafbd434f7b04e73a2dacd49a187d84000093703334e9bafb"},
		{"Water-Nsquared", 3, "49991289d673240a30fbb70e49a3a3bb818d2d78828903387b26855ca5d84d79"},
		{"Water-Spatial", 0, "1d1226d40f5b8a86611e9130fdbf50b93acd7e7d6944554f94a244eefbd9ef4c"},
		{"Water-Spatial", 3, "98396e6eb6b5834f618cadfd9d58609f045b8fcd7366aa2a491344ccbbda6701"},
	}
	profiles := map[string]trace.Profile{}
	for _, p := range append(workload.SPEC2006(), workload.Parallel()...) {
		profiles[p.Name] = p
	}
	if len(pins) != 2*len(profiles) {
		t.Fatalf("%d pins for %d profiles, want two per profile", len(pins), len(profiles))
	}
	for _, pin := range pins {
		p, ok := profiles[pin.profile]
		if !ok {
			t.Fatalf("no profile %s", pin.profile)
		}
		one := make([]trace.Inst, n)
		g := trace.NewGenerator(p, seed, pin.stream)
		for i := range one {
			one[i] = g.Next()
		}
		batched := make([]trace.Inst, n)
		g = trace.NewGenerator(p, seed, pin.stream)
		for i := 0; i < n; i += 999 {
			g.NextBatch(batched[i:min(i+999, n)])
		}
		for name, insts := range map[string][]trace.Inst{"Next": one, "NextBatch": batched} {
			if got := streamDigest(insts); got != pin.sha {
				t.Errorf("%s stream %d via %s: sha256 %s, want %s", pin.profile, pin.stream, name, got, pin.sha)
			}
		}
	}
}
