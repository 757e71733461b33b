package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hpmvm/internal/core"
	"hpmvm/internal/opt"
)

// TestComponentEncodingPinned pins every component's snapshot bytes,
// not just their round trip: SHA-256 of each ComponentState.Data at the
// fixed pause point and again at the end of the run (where the heap
// tables, the recompile log with its code-layout pad and both managed
// kinds' decisions are populated), for the six keystone configurations
// plus an eager code-layout one (the hw/cpu i-fetch word, the hw/cache
// I-cache tail). The golden corpus pins whole snapshots for
// GenMS/GenCopy × monitoring × co-allocation only; this reaches vm/aos,
// opt (the manager's decision records), opt/codelayout and
// opt/swprefetch too, and names the component that moved. A change to
// how a component states its layout must reproduce these hashes, not
// re-record them.
func TestComponentEncodingPinned(t *testing.T) {
	configs := snapConfigs()
	configs["genms-monitoring-codelayout"] = core.Options{HeapLimit: 8 << 20,
		Monitoring: true, SamplingInterval: 500, Observe: true,
		Optimizations: []core.OptimizationConfig{{Kind: opt.KindCodeLayout,
			Config: opt.CodeLayoutConfig{MinSamples: 1, EvalPeriods: 1, MinMissRate: -1}}}}
	for name, opts := range configs {
		opts := opts
		t.Run(name, func(t *testing.T) {
			paused, err := core.DecodeSnapshot(pausedSnapshot(t, opts))
			if err != nil {
				t.Fatal(err)
			}
			sys, main := buildSnapSystem(t, opts)
			if err := sys.RunContext(context.Background(), main, snapBudget); err != nil {
				t.Fatal(err)
			}
			final, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want := componentPins[name]
			if len(paused.Components) != len(want) {
				t.Errorf("%d components, %d pinned", len(paused.Components), len(want))
			}
			for i, st := range paused.Components {
				got := [2]string{dataHash(st.Data), dataHash(final.Components[i].Data)}
				if got != want[st.Component] {
					t.Errorf("%s bytes drifted (paused, final):\n got  %q\n want %q", st.Component, got, want[st.Component])
				}
			}
		})
	}
}

func dataHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// componentPins maps configuration → component → SHA-256 of its bytes
// at the pause point and at the end of the run.
var componentPins = map[string]map[string][2]string{
	"gencopy-monitoring": {
		"vm/runtime":     {"f9f5057e9f150be8c84b0fd0cd9743f67a9a52a024f4912c2e2a57fdd19faffd", "151f749a3068f0035cd31b4a21599c1e8ca8d9c81f15f9acb064d30a1305dbec"},
		"hw/mem":         {"64a9f886311c11f0d53474aa69ee60bc62d55ba95692e8ce9489f20b899013a9", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"1f2335148cb5406b5703b7a1ea46e9f41fcdd8e4d79ab1693174554ed10bc25e", "63d49138691a896a29947fff571d74316701f479b5577bfbfc14eaebe9a93687"},
		"hw/cache":       {"fc220c9c45582904cca7034b8ac33fe9ef71b20ce9b3773d6a33397eecb2e8c4", "c4c5b677f627b516f3ab12d17c1f51de4d9021f4e74a2ef37ea86570b1718f92"},
		"hw/pebs":        {"00111b954d97a706559c9e418dda2f9b7fe91649e8b8cb6bb8eb896139d3c227", "7649ac5dc00f3bc0768e0283f3f0e431ee16bfa2b19e6d5ca3ee2c05015ad98e"},
		"kernel/perfmon": {"845c35898d2cf4c1a70d3ed5cc85ccc2366c5acbfbdb1d91829efee5a4f30394", "fabf344d6ca6301def57ee8369d9719f18d9f56d14c4c8d56963d667c339de6c"},
		"gc/gencopy":     {"01198220fdcf76adfafa9bb7e9bfc57c4d9e7c4bea1a2c96fa65ad4d8ee08f83", "62cb5633cc4c3085dd0674cf64703d396767aa40af0ba53a6ed965eef252ff1f"},
		"monitor":        {"9d9716bb3a8b3f0b9ad30e79497825411e550989e6edb7e8445549bff7106807", "f99b628ac4edb7eef523c77a638356ff0c14e157116c6d7dbd2e09895d6c8a14"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "54a98c940b6fea1804739e4d51c3eef50449bf93754415d732f28491cd600e12"},
	},
	"genms-adaptive": {
		"vm/runtime":     {"024e703218cbfc81d1fcc952cd79065bac4da3239ebc5cbf3a1f1c4c05cd9f11", "9e85fc0fd34fa3edc7ffb5f0d3461c35467b9628ba5cd30fe852ae3d3e3b605a"},
		"hw/mem":         {"ae3bb4f601d453ad721eb4582e1c3323b82e9f13a128c7c7160a61b2c1fa4054", "42cc6b6f347999eb60682ec03b99a26c35fe44788626c6e34486cd872dbdcc92"},
		"hw/cpu":         {"38ca2c1e53f462f91c7ea67f4a8bf8d3e099cae6ce1465f7bc2fe60e1eea4f34", "baca152bb84e7f9475ca45d68f2896ba0c6d9706d5259863579dd77e1ffedc2b"},
		"hw/cache":       {"d2a925785aa0eea81b72590183d6cedd9feebea99c17e8e25418385219131cf1", "15a5f9eb116e193db859b483bc020448f410324a6415ab8288601b0c66c27b7a"},
		"hw/pebs":        {"00111b954d97a706559c9e418dda2f9b7fe91649e8b8cb6bb8eb896139d3c227", "50bbadec368a8d9879e722fd645488e238252f88859c19089210c1fe47b97461"},
		"kernel/perfmon": {"845c35898d2cf4c1a70d3ed5cc85ccc2366c5acbfbdb1d91829efee5a4f30394", "ff54ef785ce5e788185502de3c2067c22163da014700d8b7978155d655c5228c"},
		"gc/genms":       {"62a3c7d497ad222cf1a124fa637bcd87b0a68b82db759369279725c66b5dfe96", "2e0000eaee63016a5115869780388433674c10c91df8370417e21fd165ef6f01"},
		"monitor":        {"22558b42d6f5f2d3ec07500d1c586aa646a57bf3b48f06ff991f6d98d0dfd111", "d56c819afaab03b85a6b36c61e1225de496d9237ff6d914260008de930e4adc8"},
		"vm/aos":         {"3d15d8b97cdcbd1f7c954c589a8aa3d735f15939a886554f648d2a9d3858b41c", "3e8412ae0ff4a74bc095d73e1005d04b10be9efe33d795e2cbd8859c273ba387"},
		"obs":            {"70784b0e900cb13c9b3225042f26f3a4e05ff1117610e4ab647bd8601a108376", "1a12562292d8cc27cc773a3e21fe9e2f1eab9ceadd49cd792d012f51db966ffc"},
	},
	"genms-monitoring": {
		"vm/runtime":     {"f9f5057e9f150be8c84b0fd0cd9743f67a9a52a024f4912c2e2a57fdd19faffd", "151f749a3068f0035cd31b4a21599c1e8ca8d9c81f15f9acb064d30a1305dbec"},
		"hw/mem":         {"64a9f886311c11f0d53474aa69ee60bc62d55ba95692e8ce9489f20b899013a9", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"1f2335148cb5406b5703b7a1ea46e9f41fcdd8e4d79ab1693174554ed10bc25e", "3eef32cec4fffdf122d200d8a7415011e7aacd7eabd930ede5db4867d0835295"},
		"hw/cache":       {"fc220c9c45582904cca7034b8ac33fe9ef71b20ce9b3773d6a33397eecb2e8c4", "ca32fdd9e33c20c3a201d466300b428f5126c455b9e825d25534b54642b67d53"},
		"hw/pebs":        {"00111b954d97a706559c9e418dda2f9b7fe91649e8b8cb6bb8eb896139d3c227", "7649ac5dc00f3bc0768e0283f3f0e431ee16bfa2b19e6d5ca3ee2c05015ad98e"},
		"kernel/perfmon": {"845c35898d2cf4c1a70d3ed5cc85ccc2366c5acbfbdb1d91829efee5a4f30394", "fabf344d6ca6301def57ee8369d9719f18d9f56d14c4c8d56963d667c339de6c"},
		"gc/genms":       {"b31460c32a6b7ad963cababd7cfe0f7aee5746f955f3f4a802852e0d5096dba8", "ef18ed4061c50f1fce0914c7fad72e233fa0b621e5348440243a1542ea556a5b"},
		"monitor":        {"9d9716bb3a8b3f0b9ad30e79497825411e550989e6edb7e8445549bff7106807", "1d607a600c7916abbf508b2bce2814695cc22b4038d400528034b22d22c26ded"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "a36926543bb5785dcb3bc09a5f076f36f5600d61cbed677dd4a251cdd2843f65"},
	},
	"genms-monitoring-coalloc": {
		"vm/runtime":     {"f9f5057e9f150be8c84b0fd0cd9743f67a9a52a024f4912c2e2a57fdd19faffd", "151f749a3068f0035cd31b4a21599c1e8ca8d9c81f15f9acb064d30a1305dbec"},
		"hw/mem":         {"64a9f886311c11f0d53474aa69ee60bc62d55ba95692e8ce9489f20b899013a9", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"1f2335148cb5406b5703b7a1ea46e9f41fcdd8e4d79ab1693174554ed10bc25e", "dd5e476034245ca7f308ac90e08986d94252641672b6714ffcf2ed4df92bb430"},
		"hw/cache":       {"fc220c9c45582904cca7034b8ac33fe9ef71b20ce9b3773d6a33397eecb2e8c4", "ca32fdd9e33c20c3a201d466300b428f5126c455b9e825d25534b54642b67d53"},
		"hw/pebs":        {"469c683d1ed57b5b936bb122554a6bc87d951ea5fa6a2696b65458971867c5e6", "c981ae3060ab6d862c244c3b4ec839293de24ced2526beb935718cba344548ee"},
		"kernel/perfmon": {"845c35898d2cf4c1a70d3ed5cc85ccc2366c5acbfbdb1d91829efee5a4f30394", "fabf344d6ca6301def57ee8369d9719f18d9f56d14c4c8d56963d667c339de6c"},
		"gc/genms":       {"b31460c32a6b7ad963cababd7cfe0f7aee5746f955f3f4a802852e0d5096dba8", "ef18ed4061c50f1fce0914c7fad72e233fa0b621e5348440243a1542ea556a5b"},
		"monitor":        {"9d9716bb3a8b3f0b9ad30e79497825411e550989e6edb7e8445549bff7106807", "efe746656ab8ecc086f1090451cb0327fb3c4fbfa9d723fd4d64e3589c181ce9"},
		"opt":            {"af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc", "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
		"coalloc":        {"0a88111852095cae045340ea1f0b279944b2a756a213d9b50107d7489771e159", "0a88111852095cae045340ea1f0b279944b2a756a213d9b50107d7489771e159"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "c5bc5120e3eed2b8c922a30c9dba413df31c148fef06a3e697fd514845b6d0b3"},
	},
	"genms-monitoring-codelayout": {
		"vm/runtime":     {"f9f5057e9f150be8c84b0fd0cd9743f67a9a52a024f4912c2e2a57fdd19faffd", "8ae23c138471532955361e4627fa04fd7ae8e28a3f08b5fde0bea1894b676933"},
		"hw/mem":         {"bd3c4fcd5b11b706af29bfb56543fdbdd880a9494f2ca4ac6f3186632dcddf5f", "dced06a13df68c6b446af7f3d952884c3bd8af9fc6237d1d94e5af62317e1d85"},
		"hw/cpu":         {"5fca73c879c5bd4636fa96abcc37f8b28047538ea635a452b0fd2ae506a68997", "2a4d53ab7c7c80b02bbb8f5e916585a41219a842fc176935b9af7142cbf4ab98"},
		"hw/cache":       {"cbdd7283669ae120ab6fdde2d95837fcde71ec4e05616506e609ce69f52bc07a", "8e3c017e1ca538ad2a41f7b6d506f445d32efe4b3236a3f092ded71793b66c2a"},
		"hw/pebs":        {"469c683d1ed57b5b936bb122554a6bc87d951ea5fa6a2696b65458971867c5e6", "c981ae3060ab6d862c244c3b4ec839293de24ced2526beb935718cba344548ee"},
		"kernel/perfmon": {"845c35898d2cf4c1a70d3ed5cc85ccc2366c5acbfbdb1d91829efee5a4f30394", "fabf344d6ca6301def57ee8369d9719f18d9f56d14c4c8d56963d667c339de6c"},
		"gc/genms":       {"fce29ee8e75b8775f74969048ce336c54dab7565386d6960f3e166238d13557a", "ef18ed4061c50f1fce0914c7fad72e233fa0b621e5348440243a1542ea556a5b"},
		"monitor":        {"c14bd8a89de50832c3bb9892bc79a5eb39b301cb828330e78f3fec7415258582", "e795b1268a97c257c13e89d4b66a7ed28cef80aef2c204d0d1d04c255df52737"},
		"opt":            {"af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc", "bb9244141fc4252bca6a4540beb02a8b991305691e187e63b7e96145be586d74"},
		"opt/codelayout": {"8e8741c3ab1161021f6c052d83d3bce1ffa5d693340148443168a09718f172db", "9867fb54b3ad54f9a52db8f6d0925a64b39ca8eba0e0d970cd919edb425a776d"},
		"obs":            {"0174fa613acba4caa00c73b448a5a4e889daeb2c56f79a8bce726bf2db1d6994", "b931e15df19ba147d7070138f518192f1a3585bb978577682fdcc46d28212332"},
	},
	"genms-monitoring-swprefetch": {
		"vm/runtime":     {"f9f5057e9f150be8c84b0fd0cd9743f67a9a52a024f4912c2e2a57fdd19faffd", "151f749a3068f0035cd31b4a21599c1e8ca8d9c81f15f9acb064d30a1305dbec"},
		"hw/mem":         {"64a9f886311c11f0d53474aa69ee60bc62d55ba95692e8ce9489f20b899013a9", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"1f2335148cb5406b5703b7a1ea46e9f41fcdd8e4d79ab1693174554ed10bc25e", "dd5e476034245ca7f308ac90e08986d94252641672b6714ffcf2ed4df92bb430"},
		"hw/cache":       {"6d29b44d4debdb30f81ba26f4f204cef75833fe4831d56e66856877dc6b53aef", "f724fcfeafccdac04e19903229f95bb2a794464e3216dfb931c71d5f2b75883e"},
		"hw/pebs":        {"469c683d1ed57b5b936bb122554a6bc87d951ea5fa6a2696b65458971867c5e6", "c981ae3060ab6d862c244c3b4ec839293de24ced2526beb935718cba344548ee"},
		"kernel/perfmon": {"845c35898d2cf4c1a70d3ed5cc85ccc2366c5acbfbdb1d91829efee5a4f30394", "fabf344d6ca6301def57ee8369d9719f18d9f56d14c4c8d56963d667c339de6c"},
		"gc/genms":       {"b31460c32a6b7ad963cababd7cfe0f7aee5746f955f3f4a802852e0d5096dba8", "ef18ed4061c50f1fce0914c7fad72e233fa0b621e5348440243a1542ea556a5b"},
		"monitor":        {"9d9716bb3a8b3f0b9ad30e79497825411e550989e6edb7e8445549bff7106807", "efe746656ab8ecc086f1090451cb0327fb3c4fbfa9d723fd4d64e3589c181ce9"},
		"opt":            {"af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc", "a75b79ebf64b557f322423b02ee8c92d1b716aa57d5ca9c6099669e8fc2c1caf"},
		"opt/swprefetch": {"f375035b21cb12a0695523c544836f2cbb184afa4523f60652f2cd764aebcbd9", "345d4f5e80ccbbb3a32cbb5ea1273a889e925ea879d6f407b605ba759247ba9d"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "65829342067623e653e6248abbdce745d576b4990d5090b231e273dfe4da0db0"},
	},
	"genms-plain": {
		"vm/runtime":     {"f9f5057e9f150be8c84b0fd0cd9743f67a9a52a024f4912c2e2a57fdd19faffd", "151f749a3068f0035cd31b4a21599c1e8ca8d9c81f15f9acb064d30a1305dbec"},
		"hw/mem":         {"d6b291631779ef24734731af0fab9a9737eae2596b10d8c0ef18cb6553a4e5fb", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"4174a2a82a0f5c5155644bf7df235dbcc6f76dda5ea978bfc43a37cb1f8be28f", "6354edb06b7d994c16b75c1c2ff94758c76ae4bd99d27c91840179115afbff80"},
		"hw/cache":       {"b9ea557d373a10bfc07e4659355a89b70ab0eeb7ef9512b9ba0d35632d577b33", "ca32fdd9e33c20c3a201d466300b428f5126c455b9e825d25534b54642b67d53"},
		"hw/pebs":        {"98ce42deef51d40269d542f5314bef2c7468d401ad5d85168bfab4c0108f75f7", "98ce42deef51d40269d542f5314bef2c7468d401ad5d85168bfab4c0108f75f7"},
		"kernel/perfmon": {"9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0", "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"},
		"gc/genms":       {"49ac510aaac104c0b94fbb633fd9551656f745914a14c5d5e634e47ab9e608cc", "ef18ed4061c50f1fce0914c7fad72e233fa0b621e5348440243a1542ea556a5b"},
		"obs":            {"b3a7f3da37c8529f6e7a6c3b391f24e47eaa4f5b3f85e456082fe29e1ccd83b1", "c275506d82d972efd176136030fcb1655daf1d2543f25fc8c6d54d2a3cab2857"},
	},
}
