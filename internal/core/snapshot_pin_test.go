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
// opt/codelayout and opt/swprefetch too, and names the component that
// moved. A change to how a component states its layout must reproduce
// these hashes, not re-record them.
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
		"hw/cache":       {"d753b00c004f577f9dcefa2703b4b45dbd1baa767172db986fce6c12bed18b6f", "7ae75cb627dfe343ca93c684b36cea8843a4fd4ea750815059a91db563373f33"},
		"hw/pebs":        {"0d5aa6d9f9df90e7caa842b07bb2b71dd950137056746f8a8085d240599de7c2", "84a65a1ce82bf44fc76e51361fbb4be6d5ce2b26d614c1468cbac49c6467e854"},
		"kernel/perfmon": {"fb89a923a7c0769ee475e6a3e84dbd1b93dd6b62a98c1e88c79d3d90c466dbd7", "9ab7ac5e45df0a6135f1d2e1174ef113d25cd0029e0c7b6ccaaad95518ba115c"},
		"gc/gencopy":     {"d52315b561ab009ca492c7012faaf9bae91d1ae5c50cccce2f25fd173305eef4", "68ec642b566edff38e8592385917bbbeb1082f68f49d36df0013d59ff321838c"},
		"monitor":        {"9d9716bb3a8b3f0b9ad30e79497825411e550989e6edb7e8445549bff7106807", "f99b628ac4edb7eef523c77a638356ff0c14e157116c6d7dbd2e09895d6c8a14"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "54a98c940b6fea1804739e4d51c3eef50449bf93754415d732f28491cd600e12"},
	},
	"genms-adaptive": {
		"vm/runtime":     {"024e703218cbfc81d1fcc952cd79065bac4da3239ebc5cbf3a1f1c4c05cd9f11", "9e85fc0fd34fa3edc7ffb5f0d3461c35467b9628ba5cd30fe852ae3d3e3b605a"},
		"hw/mem":         {"ae3bb4f601d453ad721eb4582e1c3323b82e9f13a128c7c7160a61b2c1fa4054", "42cc6b6f347999eb60682ec03b99a26c35fe44788626c6e34486cd872dbdcc92"},
		"hw/cpu":         {"38ca2c1e53f462f91c7ea67f4a8bf8d3e099cae6ce1465f7bc2fe60e1eea4f34", "baca152bb84e7f9475ca45d68f2896ba0c6d9706d5259863579dd77e1ffedc2b"},
		"hw/cache":       {"206636608074e40b1d051a24d2fd3dc0d595bdbb75bc89cea211bd02c0dec045", "1676c2b3f677220607b95f580b4ca5769fe3bf061ab4fc949a9a35b61cc1a62f"},
		"hw/pebs":        {"0d5aa6d9f9df90e7caa842b07bb2b71dd950137056746f8a8085d240599de7c2", "a6f1743ab750b9970bcc642c77fb5e0f0c5e46b62c006c099e76f2a4c40f72bd"},
		"kernel/perfmon": {"fb89a923a7c0769ee475e6a3e84dbd1b93dd6b62a98c1e88c79d3d90c466dbd7", "af57d047f71c074a8aa529586322fc9557424004debc26285b34bf9574223b90"},
		"gc/genms":       {"f1efd21bf34ffa57af97ba72781633f886f5320c0dc26daee0932ce79bd9fa97", "04240fff7a85c086034072bf9bee0a1deaaafcec24b0898056e1091981350695"},
		"monitor":        {"22558b42d6f5f2d3ec07500d1c586aa646a57bf3b48f06ff991f6d98d0dfd111", "d56c819afaab03b85a6b36c61e1225de496d9237ff6d914260008de930e4adc8"},
		"vm/aos":         {"3d15d8b97cdcbd1f7c954c589a8aa3d735f15939a886554f648d2a9d3858b41c", "3e8412ae0ff4a74bc095d73e1005d04b10be9efe33d795e2cbd8859c273ba387"},
		"obs":            {"70784b0e900cb13c9b3225042f26f3a4e05ff1117610e4ab647bd8601a108376", "1a12562292d8cc27cc773a3e21fe9e2f1eab9ceadd49cd792d012f51db966ffc"},
	},
	"genms-monitoring": {
		"vm/runtime":     {"f9f5057e9f150be8c84b0fd0cd9743f67a9a52a024f4912c2e2a57fdd19faffd", "151f749a3068f0035cd31b4a21599c1e8ca8d9c81f15f9acb064d30a1305dbec"},
		"hw/mem":         {"64a9f886311c11f0d53474aa69ee60bc62d55ba95692e8ce9489f20b899013a9", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"1f2335148cb5406b5703b7a1ea46e9f41fcdd8e4d79ab1693174554ed10bc25e", "3eef32cec4fffdf122d200d8a7415011e7aacd7eabd930ede5db4867d0835295"},
		"hw/cache":       {"d753b00c004f577f9dcefa2703b4b45dbd1baa767172db986fce6c12bed18b6f", "ae88f0a6d971ff4ffa109ce1eeee108a8203c235ba55b07e35d788818e785593"},
		"hw/pebs":        {"0d5aa6d9f9df90e7caa842b07bb2b71dd950137056746f8a8085d240599de7c2", "84a65a1ce82bf44fc76e51361fbb4be6d5ce2b26d614c1468cbac49c6467e854"},
		"kernel/perfmon": {"fb89a923a7c0769ee475e6a3e84dbd1b93dd6b62a98c1e88c79d3d90c466dbd7", "9ab7ac5e45df0a6135f1d2e1174ef113d25cd0029e0c7b6ccaaad95518ba115c"},
		"gc/genms":       {"79fdd3545585e456a43e9ddb766838e4b068ecf8717e9e720e4658e17a48d070", "7bf4e813fe1aff5c432d3e432c4e28426aa9562c316284462458b0cd44c54400"},
		"monitor":        {"9d9716bb3a8b3f0b9ad30e79497825411e550989e6edb7e8445549bff7106807", "1d607a600c7916abbf508b2bce2814695cc22b4038d400528034b22d22c26ded"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "a36926543bb5785dcb3bc09a5f076f36f5600d61cbed677dd4a251cdd2843f65"},
	},
	"genms-monitoring-coalloc": {
		"vm/runtime":     {"f9f5057e9f150be8c84b0fd0cd9743f67a9a52a024f4912c2e2a57fdd19faffd", "151f749a3068f0035cd31b4a21599c1e8ca8d9c81f15f9acb064d30a1305dbec"},
		"hw/mem":         {"64a9f886311c11f0d53474aa69ee60bc62d55ba95692e8ce9489f20b899013a9", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"1f2335148cb5406b5703b7a1ea46e9f41fcdd8e4d79ab1693174554ed10bc25e", "dd5e476034245ca7f308ac90e08986d94252641672b6714ffcf2ed4df92bb430"},
		"hw/cache":       {"d753b00c004f577f9dcefa2703b4b45dbd1baa767172db986fce6c12bed18b6f", "ae88f0a6d971ff4ffa109ce1eeee108a8203c235ba55b07e35d788818e785593"},
		"hw/pebs":        {"4959cda2453fced191b3d8b2423840062ccb1d7353aea4e0c8c91d99b3328970", "b79f52f287fd82a7176c7b839de250ee1fd17c33851ac04e6e3cc5308ba727b2"},
		"kernel/perfmon": {"b4ffaf288de1e3cd7e605135862be222b1cd7b98dffe2c453bcd28dc4bb78bd4", "bad9248013d9faa0c8aae7e43c552b7efb23dd4c313e8170f04d762cba95512f"},
		"gc/genms":       {"79fdd3545585e456a43e9ddb766838e4b068ecf8717e9e720e4658e17a48d070", "7bf4e813fe1aff5c432d3e432c4e28426aa9562c316284462458b0cd44c54400"},
		"monitor":        {"9d9716bb3a8b3f0b9ad30e79497825411e550989e6edb7e8445549bff7106807", "efe746656ab8ecc086f1090451cb0327fb3c4fbfa9d723fd4d64e3589c181ce9"},
		"coalloc":        {"61126de1b795b976f3ac878f48e88fa77a87d7308ba57c7642b9e1068403a496", "61126de1b795b976f3ac878f48e88fa77a87d7308ba57c7642b9e1068403a496"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "c5bc5120e3eed2b8c922a30c9dba413df31c148fef06a3e697fd514845b6d0b3"},
	},
	"genms-monitoring-codelayout": {
		"vm/runtime":     {"f9f5057e9f150be8c84b0fd0cd9743f67a9a52a024f4912c2e2a57fdd19faffd", "8ae23c138471532955361e4627fa04fd7ae8e28a3f08b5fde0bea1894b676933"},
		"hw/mem":         {"bd3c4fcd5b11b706af29bfb56543fdbdd880a9494f2ca4ac6f3186632dcddf5f", "dced06a13df68c6b446af7f3d952884c3bd8af9fc6237d1d94e5af62317e1d85"},
		"hw/cpu":         {"5fca73c879c5bd4636fa96abcc37f8b28047538ea635a452b0fd2ae506a68997", "2a4d53ab7c7c80b02bbb8f5e916585a41219a842fc176935b9af7142cbf4ab98"},
		"hw/cache":       {"27082accda90727231ae8abb5e5a630438f51b8ad41f4b8de313ad8a3c22eff8", "3c2fc348c82bdd092b0f5c9dbd53b1513139d5a4d7de8efdebfe73cbe80d9e20"},
		"hw/pebs":        {"4959cda2453fced191b3d8b2423840062ccb1d7353aea4e0c8c91d99b3328970", "b79f52f287fd82a7176c7b839de250ee1fd17c33851ac04e6e3cc5308ba727b2"},
		"kernel/perfmon": {"b4ffaf288de1e3cd7e605135862be222b1cd7b98dffe2c453bcd28dc4bb78bd4", "bad9248013d9faa0c8aae7e43c552b7efb23dd4c313e8170f04d762cba95512f"},
		"gc/genms":       {"6be74d324a6b889ac781e51bd626d750c190996508c4d8ecc93b239b3c120a4c", "7bf4e813fe1aff5c432d3e432c4e28426aa9562c316284462458b0cd44c54400"},
		"monitor":        {"c14bd8a89de50832c3bb9892bc79a5eb39b301cb828330e78f3fec7415258582", "e795b1268a97c257c13e89d4b66a7ed28cef80aef2c204d0d1d04c255df52737"},
		"opt/codelayout": {"ce909a825e62c2de8d6299a0f414bebc59d0af424e3f6ab7a0ec34e45d38849e", "9c68d6e6310ced7501675184010ba754fb40c063fa9be36ce834be62efb3ea7c"},
		"obs":            {"0174fa613acba4caa00c73b448a5a4e889daeb2c56f79a8bce726bf2db1d6994", "b931e15df19ba147d7070138f518192f1a3585bb978577682fdcc46d28212332"},
	},
	"genms-monitoring-swprefetch": {
		"vm/runtime":     {"f9f5057e9f150be8c84b0fd0cd9743f67a9a52a024f4912c2e2a57fdd19faffd", "151f749a3068f0035cd31b4a21599c1e8ca8d9c81f15f9acb064d30a1305dbec"},
		"hw/mem":         {"64a9f886311c11f0d53474aa69ee60bc62d55ba95692e8ce9489f20b899013a9", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"1f2335148cb5406b5703b7a1ea46e9f41fcdd8e4d79ab1693174554ed10bc25e", "dd5e476034245ca7f308ac90e08986d94252641672b6714ffcf2ed4df92bb430"},
		"hw/cache":       {"2de0a12ef229b91034c645b5cc4bb9dbb52e17f62fe0817969139c1a1f226526", "340ca61df0067b88733fc27f8f4f447a5ec8e200bb500906ecce6bb48cfc53f7"},
		"hw/pebs":        {"4959cda2453fced191b3d8b2423840062ccb1d7353aea4e0c8c91d99b3328970", "b79f52f287fd82a7176c7b839de250ee1fd17c33851ac04e6e3cc5308ba727b2"},
		"kernel/perfmon": {"b4ffaf288de1e3cd7e605135862be222b1cd7b98dffe2c453bcd28dc4bb78bd4", "bad9248013d9faa0c8aae7e43c552b7efb23dd4c313e8170f04d762cba95512f"},
		"gc/genms":       {"79fdd3545585e456a43e9ddb766838e4b068ecf8717e9e720e4658e17a48d070", "7bf4e813fe1aff5c432d3e432c4e28426aa9562c316284462458b0cd44c54400"},
		"monitor":        {"9d9716bb3a8b3f0b9ad30e79497825411e550989e6edb7e8445549bff7106807", "efe746656ab8ecc086f1090451cb0327fb3c4fbfa9d723fd4d64e3589c181ce9"},
		"opt/swprefetch": {"f5cde66d27eeb61a0fcc3d9c60fa3edd2aafc9b89bad90843a7bb2d453e615f8", "08345a4458ccdd84fab052f542e16eafdd9797b60641408520e8381758530e00"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "65829342067623e653e6248abbdce745d576b4990d5090b231e273dfe4da0db0"},
	},
	"genms-plain": {
		"vm/runtime":     {"f9f5057e9f150be8c84b0fd0cd9743f67a9a52a024f4912c2e2a57fdd19faffd", "151f749a3068f0035cd31b4a21599c1e8ca8d9c81f15f9acb064d30a1305dbec"},
		"hw/mem":         {"d6b291631779ef24734731af0fab9a9737eae2596b10d8c0ef18cb6553a4e5fb", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"4174a2a82a0f5c5155644bf7df235dbcc6f76dda5ea978bfc43a37cb1f8be28f", "6354edb06b7d994c16b75c1c2ff94758c76ae4bd99d27c91840179115afbff80"},
		"hw/cache":       {"7ccad40adc133d5dd6402f4738d3b402e482b51b92f5bd75522994ba9733f866", "ae88f0a6d971ff4ffa109ce1eeee108a8203c235ba55b07e35d788818e785593"},
		"hw/pebs":        {"951b1c95584b91fd8776e1d26b25d745ad5d508f6337686b9f7131d7c2f7096a", "951b1c95584b91fd8776e1d26b25d745ad5d508f6337686b9f7131d7c2f7096a"},
		"kernel/perfmon": {"6778c7c7b6b6c1c273e668169a7652a681da86ad62d03f7c5aa120405069feb2", "6778c7c7b6b6c1c273e668169a7652a681da86ad62d03f7c5aa120405069feb2"},
		"gc/genms":       {"20f15d3897c00f24cd2ccdf71c3ef4ba8c7816e4942f6339224ec0f8a8c15cdf", "7bf4e813fe1aff5c432d3e432c4e28426aa9562c316284462458b0cd44c54400"},
		"obs":            {"b3a7f3da37c8529f6e7a6c3b391f24e47eaa4f5b3f85e456082fe29e1ccd83b1", "c275506d82d972efd176136030fcb1655daf1d2543f25fc8c6d54d2a3cab2857"},
	},
}
