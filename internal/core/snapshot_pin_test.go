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
		"vm/runtime":     {"ee869fa3fe9033719de239450de2d5525589b1d33b1295679f8cc3de6914210f", "8949f7f468af4026075723316fbec87fc5d568e0467f960c50a246c625024b06"},
		"hw/mem":         {"64a9f886311c11f0d53474aa69ee60bc62d55ba95692e8ce9489f20b899013a9", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"1f2335148cb5406b5703b7a1ea46e9f41fcdd8e4d79ab1693174554ed10bc25e", "63d49138691a896a29947fff571d74316701f479b5577bfbfc14eaebe9a93687"},
		"hw/cache":       {"d753b00c004f577f9dcefa2703b4b45dbd1baa767172db986fce6c12bed18b6f", "7ae75cb627dfe343ca93c684b36cea8843a4fd4ea750815059a91db563373f33"},
		"hw/pebs":        {"0d5aa6d9f9df90e7caa842b07bb2b71dd950137056746f8a8085d240599de7c2", "84a65a1ce82bf44fc76e51361fbb4be6d5ce2b26d614c1468cbac49c6467e854"},
		"kernel/perfmon": {"fb89a923a7c0769ee475e6a3e84dbd1b93dd6b62a98c1e88c79d3d90c466dbd7", "9ab7ac5e45df0a6135f1d2e1174ef113d25cd0029e0c7b6ccaaad95518ba115c"},
		"gc/gencopy":     {"d52315b561ab009ca492c7012faaf9bae91d1ae5c50cccce2f25fd173305eef4", "68ec642b566edff38e8592385917bbbeb1082f68f49d36df0013d59ff321838c"},
		"monitor":        {"0756759f864424c7ab26e0b067f4a39ca0ceb98f8b12877fe11ef7dcb43f6df2", "24b0efdc50fa8913852c39de20ba0a702880d4e745ad4f7325894d051a259ec1"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "54a98c940b6fea1804739e4d51c3eef50449bf93754415d732f28491cd600e12"},
	},
	"genms-adaptive": {
		"vm/runtime":     {"e25efd7623e778932070e34604460af8d805d138efe9654a3c23ac81442dbd3d", "751250146b84cbacbcc859d6671745977b0f136f7919a0c3f9799df6da71251c"},
		"hw/mem":         {"ae3bb4f601d453ad721eb4582e1c3323b82e9f13a128c7c7160a61b2c1fa4054", "42cc6b6f347999eb60682ec03b99a26c35fe44788626c6e34486cd872dbdcc92"},
		"hw/cpu":         {"38ca2c1e53f462f91c7ea67f4a8bf8d3e099cae6ce1465f7bc2fe60e1eea4f34", "baca152bb84e7f9475ca45d68f2896ba0c6d9706d5259863579dd77e1ffedc2b"},
		"hw/cache":       {"206636608074e40b1d051a24d2fd3dc0d595bdbb75bc89cea211bd02c0dec045", "1676c2b3f677220607b95f580b4ca5769fe3bf061ab4fc949a9a35b61cc1a62f"},
		"hw/pebs":        {"0d5aa6d9f9df90e7caa842b07bb2b71dd950137056746f8a8085d240599de7c2", "a6f1743ab750b9970bcc642c77fb5e0f0c5e46b62c006c099e76f2a4c40f72bd"},
		"kernel/perfmon": {"fb89a923a7c0769ee475e6a3e84dbd1b93dd6b62a98c1e88c79d3d90c466dbd7", "af57d047f71c074a8aa529586322fc9557424004debc26285b34bf9574223b90"},
		"gc/genms":       {"65ddc2722e0ce6e5db2e981f85aeee23a1a20cc799ac900bac1907a3999cba78", "c1034ab837fc8199c724cd2ceb840c182bd5b2ff0b8d0a9348d2dcb74009d6a9"},
		"monitor":        {"1e00b36f07404dfcd4e0b9732553241fe79db53590e621ab48be7a7edbf0e1ad", "a402817690d24d292836971dfd0c2b0c311488cd2b7ff17ee20ae85b6e928e31"},
		"vm/aos":         {"3d15d8b97cdcbd1f7c954c589a8aa3d735f15939a886554f648d2a9d3858b41c", "3e8412ae0ff4a74bc095d73e1005d04b10be9efe33d795e2cbd8859c273ba387"},
		"obs":            {"70784b0e900cb13c9b3225042f26f3a4e05ff1117610e4ab647bd8601a108376", "1a12562292d8cc27cc773a3e21fe9e2f1eab9ceadd49cd792d012f51db966ffc"},
	},
	"genms-monitoring": {
		"vm/runtime":     {"ee869fa3fe9033719de239450de2d5525589b1d33b1295679f8cc3de6914210f", "8949f7f468af4026075723316fbec87fc5d568e0467f960c50a246c625024b06"},
		"hw/mem":         {"64a9f886311c11f0d53474aa69ee60bc62d55ba95692e8ce9489f20b899013a9", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"1f2335148cb5406b5703b7a1ea46e9f41fcdd8e4d79ab1693174554ed10bc25e", "3eef32cec4fffdf122d200d8a7415011e7aacd7eabd930ede5db4867d0835295"},
		"hw/cache":       {"d753b00c004f577f9dcefa2703b4b45dbd1baa767172db986fce6c12bed18b6f", "ae88f0a6d971ff4ffa109ce1eeee108a8203c235ba55b07e35d788818e785593"},
		"hw/pebs":        {"0d5aa6d9f9df90e7caa842b07bb2b71dd950137056746f8a8085d240599de7c2", "84a65a1ce82bf44fc76e51361fbb4be6d5ce2b26d614c1468cbac49c6467e854"},
		"kernel/perfmon": {"fb89a923a7c0769ee475e6a3e84dbd1b93dd6b62a98c1e88c79d3d90c466dbd7", "9ab7ac5e45df0a6135f1d2e1174ef113d25cd0029e0c7b6ccaaad95518ba115c"},
		"gc/genms":       {"27f39afb825574798356e0a7d02dbdb3da4c3cef2bc8501331455a7af0b032f3", "168e5142c61fab9f5b3c553dcb07bcef5f670c09e13fbc31e0ef4e19795889d3"},
		"monitor":        {"0756759f864424c7ab26e0b067f4a39ca0ceb98f8b12877fe11ef7dcb43f6df2", "6caa3d381ea094fd63a0d8490a2afca05bc4c796aa198a02f49ea75987d23a57"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "a36926543bb5785dcb3bc09a5f076f36f5600d61cbed677dd4a251cdd2843f65"},
	},
	"genms-monitoring-coalloc": {
		"vm/runtime":     {"ee869fa3fe9033719de239450de2d5525589b1d33b1295679f8cc3de6914210f", "8949f7f468af4026075723316fbec87fc5d568e0467f960c50a246c625024b06"},
		"hw/mem":         {"64a9f886311c11f0d53474aa69ee60bc62d55ba95692e8ce9489f20b899013a9", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"1f2335148cb5406b5703b7a1ea46e9f41fcdd8e4d79ab1693174554ed10bc25e", "dd5e476034245ca7f308ac90e08986d94252641672b6714ffcf2ed4df92bb430"},
		"hw/cache":       {"d753b00c004f577f9dcefa2703b4b45dbd1baa767172db986fce6c12bed18b6f", "ae88f0a6d971ff4ffa109ce1eeee108a8203c235ba55b07e35d788818e785593"},
		"hw/pebs":        {"4959cda2453fced191b3d8b2423840062ccb1d7353aea4e0c8c91d99b3328970", "b79f52f287fd82a7176c7b839de250ee1fd17c33851ac04e6e3cc5308ba727b2"},
		"kernel/perfmon": {"b4ffaf288de1e3cd7e605135862be222b1cd7b98dffe2c453bcd28dc4bb78bd4", "bad9248013d9faa0c8aae7e43c552b7efb23dd4c313e8170f04d762cba95512f"},
		"gc/genms":       {"27f39afb825574798356e0a7d02dbdb3da4c3cef2bc8501331455a7af0b032f3", "168e5142c61fab9f5b3c553dcb07bcef5f670c09e13fbc31e0ef4e19795889d3"},
		"monitor":        {"0756759f864424c7ab26e0b067f4a39ca0ceb98f8b12877fe11ef7dcb43f6df2", "5f0036720628d09de5bc60756090da4968666cfe9c507a3cf614221478e351c4"},
		"coalloc":        {"61126de1b795b976f3ac878f48e88fa77a87d7308ba57c7642b9e1068403a496", "61126de1b795b976f3ac878f48e88fa77a87d7308ba57c7642b9e1068403a496"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "c5bc5120e3eed2b8c922a30c9dba413df31c148fef06a3e697fd514845b6d0b3"},
	},
	"genms-monitoring-codelayout": {
		"vm/runtime":     {"c8e3b86589973d11e21e0f3bebc3ca91433a3b47e6aa825aebb2fb0a595b3736", "043b27a56b0a29157cc86a8b654d213dd222159ffb0a310d1612c71efdac4991"},
		"hw/mem":         {"bd3c4fcd5b11b706af29bfb56543fdbdd880a9494f2ca4ac6f3186632dcddf5f", "dced06a13df68c6b446af7f3d952884c3bd8af9fc6237d1d94e5af62317e1d85"},
		"hw/cpu":         {"5fca73c879c5bd4636fa96abcc37f8b28047538ea635a452b0fd2ae506a68997", "2a4d53ab7c7c80b02bbb8f5e916585a41219a842fc176935b9af7142cbf4ab98"},
		"hw/cache":       {"27082accda90727231ae8abb5e5a630438f51b8ad41f4b8de313ad8a3c22eff8", "3c2fc348c82bdd092b0f5c9dbd53b1513139d5a4d7de8efdebfe73cbe80d9e20"},
		"hw/pebs":        {"4959cda2453fced191b3d8b2423840062ccb1d7353aea4e0c8c91d99b3328970", "b79f52f287fd82a7176c7b839de250ee1fd17c33851ac04e6e3cc5308ba727b2"},
		"kernel/perfmon": {"b4ffaf288de1e3cd7e605135862be222b1cd7b98dffe2c453bcd28dc4bb78bd4", "bad9248013d9faa0c8aae7e43c552b7efb23dd4c313e8170f04d762cba95512f"},
		"gc/genms":       {"0abe73005640615035665782208a12d30a67662c30f9cd8a0d02386fd3e89b61", "168e5142c61fab9f5b3c553dcb07bcef5f670c09e13fbc31e0ef4e19795889d3"},
		"monitor":        {"dfaf338f9682fc9ac6e9a019ce244635a26179c1c3218dc8d4c5e05a0ad82fa5", "c12fa7988a2a6109b68cd754de0983fbadda83812cc7ad1abe398b0eaca13cfc"},
		"opt/codelayout": {"ce909a825e62c2de8d6299a0f414bebc59d0af424e3f6ab7a0ec34e45d38849e", "9c68d6e6310ced7501675184010ba754fb40c063fa9be36ce834be62efb3ea7c"},
		"obs":            {"0174fa613acba4caa00c73b448a5a4e889daeb2c56f79a8bce726bf2db1d6994", "b931e15df19ba147d7070138f518192f1a3585bb978577682fdcc46d28212332"},
	},
	"genms-monitoring-swprefetch": {
		"vm/runtime":     {"ee869fa3fe9033719de239450de2d5525589b1d33b1295679f8cc3de6914210f", "8949f7f468af4026075723316fbec87fc5d568e0467f960c50a246c625024b06"},
		"hw/mem":         {"64a9f886311c11f0d53474aa69ee60bc62d55ba95692e8ce9489f20b899013a9", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"1f2335148cb5406b5703b7a1ea46e9f41fcdd8e4d79ab1693174554ed10bc25e", "dd5e476034245ca7f308ac90e08986d94252641672b6714ffcf2ed4df92bb430"},
		"hw/cache":       {"2de0a12ef229b91034c645b5cc4bb9dbb52e17f62fe0817969139c1a1f226526", "340ca61df0067b88733fc27f8f4f447a5ec8e200bb500906ecce6bb48cfc53f7"},
		"hw/pebs":        {"4959cda2453fced191b3d8b2423840062ccb1d7353aea4e0c8c91d99b3328970", "b79f52f287fd82a7176c7b839de250ee1fd17c33851ac04e6e3cc5308ba727b2"},
		"kernel/perfmon": {"b4ffaf288de1e3cd7e605135862be222b1cd7b98dffe2c453bcd28dc4bb78bd4", "bad9248013d9faa0c8aae7e43c552b7efb23dd4c313e8170f04d762cba95512f"},
		"gc/genms":       {"27f39afb825574798356e0a7d02dbdb3da4c3cef2bc8501331455a7af0b032f3", "168e5142c61fab9f5b3c553dcb07bcef5f670c09e13fbc31e0ef4e19795889d3"},
		"monitor":        {"0756759f864424c7ab26e0b067f4a39ca0ceb98f8b12877fe11ef7dcb43f6df2", "5f0036720628d09de5bc60756090da4968666cfe9c507a3cf614221478e351c4"},
		"opt/swprefetch": {"f5cde66d27eeb61a0fcc3d9c60fa3edd2aafc9b89bad90843a7bb2d453e615f8", "08345a4458ccdd84fab052f542e16eafdd9797b60641408520e8381758530e00"},
		"obs":            {"241945477a26da8ee2147cb404044e3035cf7303d5b49e4bcd32b7112d90ef29", "65829342067623e653e6248abbdce745d576b4990d5090b231e273dfe4da0db0"},
	},
	"genms-plain": {
		"vm/runtime":     {"64e4dc790483e8ef77a87a1852ceb58e6c09997cd2d7672fbc4ce707e790f0ca", "8949f7f468af4026075723316fbec87fc5d568e0467f960c50a246c625024b06"},
		"hw/mem":         {"d6b291631779ef24734731af0fab9a9737eae2596b10d8c0ef18cb6553a4e5fb", "eb30647f522b6f5b07f0aae9b3c31728d1c14e46f9a14bab9898796385777e6a"},
		"hw/cpu":         {"4174a2a82a0f5c5155644bf7df235dbcc6f76dda5ea978bfc43a37cb1f8be28f", "6354edb06b7d994c16b75c1c2ff94758c76ae4bd99d27c91840179115afbff80"},
		"hw/cache":       {"7ccad40adc133d5dd6402f4738d3b402e482b51b92f5bd75522994ba9733f866", "ae88f0a6d971ff4ffa109ce1eeee108a8203c235ba55b07e35d788818e785593"},
		"hw/pebs":        {"951b1c95584b91fd8776e1d26b25d745ad5d508f6337686b9f7131d7c2f7096a", "951b1c95584b91fd8776e1d26b25d745ad5d508f6337686b9f7131d7c2f7096a"},
		"kernel/perfmon": {"6778c7c7b6b6c1c273e668169a7652a681da86ad62d03f7c5aa120405069feb2", "6778c7c7b6b6c1c273e668169a7652a681da86ad62d03f7c5aa120405069feb2"},
		"gc/genms":       {"9aed8a1048a505d66a766bf89b8ea83dcc28b265fbc3b5c7e016494e44558313", "168e5142c61fab9f5b3c553dcb07bcef5f670c09e13fbc31e0ef4e19795889d3"},
		"obs":            {"b3a7f3da37c8529f6e7a6c3b391f24e47eaa4f5b3f85e456082fe29e1ccd83b1", "c275506d82d972efd176136030fcb1655daf1d2543f25fc8c6d54d2a3cab2857"},
	},
}
